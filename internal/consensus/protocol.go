// Package consensus implements every consensus protocol in the paper, one
// constructor per row of Table 1 plus the two introduction examples. Each
// protocol declares its instruction set and how many memory locations it
// needs for n processes; NewSystem wires it to a fresh simulated memory, and
// the hierarchy harness compares the declared (and measured) space against
// the paper's bounds.
package consensus

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Protocol is a runnable consensus algorithm for a fixed number of
// processes n.
type Protocol struct {
	// Name identifies the protocol in harness output.
	Name string
	// Set is the instruction set all memory locations support.
	Set machine.InstrSet
	// N is the number of processes the instance is built for.
	N int
	// Values is the number of distinct input values supported: N for
	// n-consensus, 2 for binary consensus.
	Values int
	// Locations is the number of memory locations the protocol allocates;
	// 0 together with Unbounded means the memory grows on demand.
	Locations int
	// Unbounded marks protocols whose space consumption is unbounded
	// (Table 1's first row).
	Unbounded bool
	// Initial holds non-zero initial location values, keyed by location.
	Initial map[int]machine.Value
	// Capacities optionally sets per-location buffer capacities
	// (heterogeneous Section 6.2 variant).
	Capacities []int
	// Channels declares bounded message channels carried by the protocol's
	// memory (the message-passing companion rows); nil for the pure
	// shared-memory rows. Channel locations count toward Locations.
	Channels []machine.ChannelSpec
	// A protocol sets exactly one of Body and Steppers. Steppers builds
	// the processes for the given inputs as explicit forkable state
	// machines (steppers.go), which makes System.Fork O(state) and the
	// explorer's dedup keys canonical; every protocol this package builds
	// sets it. Body is per-process coroutine code, for protocols written
	// that way (user protocols, internal/adoptcommit): the coroutine
	// adapter solves them but cannot fork them, so exploring one fails
	// with sim.ErrNotForkable.
	Body     sim.Body
	Steppers func(inputs []int) []sim.Stepper
	// WaitFree marks protocols that decide in a bounded number of own
	// steps regardless of scheduling (the introduction's examples).
	WaitFree bool
}

// NewMemory allocates a fresh memory sized and initialized for the protocol.
func (pr *Protocol) NewMemory() *machine.Memory {
	var opts []machine.Option
	if pr.Unbounded {
		opts = append(opts, machine.WithUnbounded())
	}
	if pr.Initial != nil {
		opts = append(opts, machine.WithInitial(pr.Initial))
	}
	if pr.Capacities != nil {
		opts = append(opts, machine.WithCapacities(pr.Capacities))
	}
	if pr.Channels != nil {
		opts = append(opts, machine.WithChannels(pr.Channels))
	}
	return machine.New(pr.Set, pr.Locations, opts...)
}

// NewSystem builds a fresh system of N processes with the given inputs
// running the protocol. Inputs must lie in [0, Values), and the protocol
// must set exactly one of Body and Steppers.
func (pr *Protocol) NewSystem(inputs []int, opts ...sim.SystemOption) (*sim.System, error) {
	if (pr.Body == nil) == (pr.Steppers == nil) {
		return nil, fmt.Errorf("consensus: %s must set exactly one of Body and Steppers", pr.Name)
	}
	if len(inputs) != pr.N {
		return nil, fmt.Errorf("consensus: %s built for %d processes, got %d inputs",
			pr.Name, pr.N, len(inputs))
	}
	for _, in := range inputs {
		if in < 0 || in >= pr.Values {
			return nil, fmt.Errorf("consensus: input %d outside [0,%d)", in, pr.Values)
		}
	}
	if pr.Steppers != nil {
		return sim.NewSystemSteppers(pr.NewMemory(), inputs, pr.Steppers(inputs), opts...), nil
	}
	return sim.NewSystem(pr.NewMemory(), inputs, pr.Body, opts...), nil
}

// MustSystem is NewSystem for tests and examples where inputs are known
// valid.
func (pr *Protocol) MustSystem(inputs []int, opts ...sim.SystemOption) *sim.System {
	s, err := pr.NewSystem(inputs, opts...)
	if err != nil {
		panic(err)
	}
	return s
}
