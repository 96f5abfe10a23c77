package explore

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

func factoryFor(build func() *consensus.Protocol, inputs []int) Factory {
	return func() (*sim.System, error) {
		return build().NewSystem(inputs)
	}
}

// brokenStepper reads location 0 once and then decides its own input: an
// unsafe protocol (agreement fails whenever inputs differ) that the tests
// plant to guard against a vacuously green checker. It forks and keys, as
// every explored system must.
type brokenStepper struct {
	input int
	done  bool
}

// readLoc0 is the read of location 0 the package's test steppers poise on:
// shared and never written, so Poise returns it without allocating.
var readLoc0 = sim.OpInfo{Loc: 0, Op: machine.OpRead}

func (s *brokenStepper) Poise() *sim.OpInfo {
	if s.done {
		return nil
	}
	return &readLoc0
}
func (s *brokenStepper) Resume(machine.Value) bool        { s.done = true; return true }
func (s *brokenStepper) Outcome() (bool, int, error)      { return s.done, s.input, nil }
func (s *brokenStepper) Halt()                            {}
func (s *brokenStepper) ForkInto(sim.Stepper) sim.Stepper { f := *s; return &f }
func (s *brokenStepper) StateKey(relabel func(int) int) (uint64, bool) {
	if relabel != nil {
		return 0, false
	}
	return machine.Mix64(uint64(s.input)), true
}

// broken is the factory of the two-process broken protocol, inputs 0 and 1.
func broken() (*sim.System, error) {
	inputs := []int{0, 1}
	steppers := make([]sim.Stepper, len(inputs))
	for i, in := range inputs {
		steppers[i] = &brokenStepper{input: in}
	}
	return sim.NewSystemSteppers(machine.New(machine.SetReadWrite, 1), inputs, steppers), nil
}

// TestExhaustiveCAS verifies the CAS protocol over every interleaving of
// three processes (each takes exactly one step, so the space is tiny and
// exploration is complete, not bounded).
func TestExhaustiveCAS(t *testing.T) {
	rep, err := Exhaustive(context.Background(),
		factoryFor(func() *consensus.Protocol { return consensus.CAS(3) }, []int{0, 1, 2}),
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	// 3 processes, 1 step each: 3! = 6 maximal schedules.
	if rep.Runs != 6 {
		t.Fatalf("runs = %d, want 6", rep.Runs)
	}
}

// TestExhaustiveIntroProtocols fully explores the two introduction
// protocols for all input patterns with 3 processes (2 steps per process).
func TestExhaustiveIntroProtocols(t *testing.T) {
	for name, build := range map[string]func(n int) *consensus.Protocol{
		"faa2-tas": consensus.IntroFAA2TAS,
		"dec-mul":  consensus.IntroDecMul,
	} {
		t.Run(name, func(t *testing.T) {
			n := 3
			for pattern := 0; pattern < 1<<n; pattern++ {
				inputs := make([]int, n)
				for i := range inputs {
					inputs[i] = (pattern >> i) & 1
				}
				rep, err := Exhaustive(context.Background(),
					factoryFor(func() *consensus.Protocol { return build(n) }, inputs),
					Options{})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Violations) != 0 {
					t.Fatalf("inputs %v: %v", inputs, rep.Violations[0])
				}
			}
		})
	}
}

// TestExhaustiveMaxRegistersBounded explores the two-max-register protocol
// for 2 processes to a depth beyond its solo decision length, catching any
// interleaving-dependent safety bug near the root of the execution tree.
func TestExhaustiveMaxRegistersBounded(t *testing.T) {
	rep, err := Exhaustive(context.Background(),
		factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1}),
		Options{MaxDepth: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Runs == 0 || rep.States < rep.Runs {
		t.Fatalf("implausible report: %+v", rep)
	}
}

// TestExhaustiveBuffered explores the l-buffer protocol (n=2, l=2: a single
// buffer) to bounded depth.
func TestExhaustiveBuffered(t *testing.T) {
	rep, err := Exhaustive(context.Background(),
		factoryFor(func() *consensus.Protocol { return consensus.Buffered(2, 2) }, []int{1, 0}),
		Options{MaxDepth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestExhaustiveCatchesBrokenProtocol plants a deliberately unsafe protocol
// (decide own input after one read: no agreement) and checks the explorer
// reports it — guarding against a vacuously green checker.
func TestExhaustiveCatchesBrokenProtocol(t *testing.T) {
	rep, err := Exhaustive(context.Background(), broken, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("explorer failed to detect an agreement violation")
	}
}

// TestStrategiesAgree is the fork-vs-replay differential: the one-worker
// walk and the test-only replay oracle must produce byte-identical Reports
// — same runs, same states, same truncation, same violations in the same
// order — across natively forkable protocols, a depth-bounded instance, a
// MaxRuns-truncated instance, a SoloBudget instance, dedup on and off, and
// a deliberately broken protocol.
func TestStrategiesAgree(t *testing.T) {
	cases := []struct {
		name string
		f    Factory
		opts Options
	}{
		{"cas3", factoryFor(func() *consensus.Protocol { return consensus.CAS(3) }, []int{0, 1, 2}), Options{}},
		{"intro-faa2-tas", factoryFor(func() *consensus.Protocol { return consensus.IntroFAA2TAS(3) }, []int{0, 1, 0}), Options{}},
		{"max-registers-depth8", factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1}), Options{MaxDepth: 8}},
		{"add-depth7", factoryFor(func() *consensus.Protocol { return consensus.Add(2) }, []int{1, 0}), Options{MaxDepth: 7}},
		{"buffered-depth7", factoryFor(func() *consensus.Protocol { return consensus.Buffered(2, 2) }, []int{1, 0}), Options{MaxDepth: 7}},
		{"maxruns", factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2}), Options{MaxDepth: 12, MaxRuns: 5}},
		{"solo", factoryFor(func() *consensus.Protocol { return consensus.CAS(2) }, []int{0, 1}), Options{SoloBudget: 5}},
		{"broken", broken, Options{}},
		{"dedup-max-registers-depth8", factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1}), Options{MaxDepth: 8, Dedup: true}},
		{"dedup-maxruns", factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2}), Options{MaxDepth: 12, MaxRuns: 5, Dedup: true}},
		{"dedup-broken", broken, Options{Dedup: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rrep := runReplay(t, tc.f, tc.opts)
			frep := run(t, tc.f, tc.opts)
			if !reflect.DeepEqual(stripMem(rrep), stripMem(frep)) {
				t.Fatalf("strategies disagree:\nreplay %+v\nfork   %+v", rrep, frep)
			}
		})
	}
}

// TestDedupCollapsesStates: seen-state deduplication must visit strictly
// fewer configurations on protocols with commuting steps while reaching the
// same safety verdict, and must still catch violations of an unsafe
// protocol.
func TestDedupCollapsesStates(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1})
	plain, err := Exhaustive(context.Background(), f, Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := Exhaustive(context.Background(), f, Options{MaxDepth: 10, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Violations) != 0 || len(dedup.Violations) != 0 {
		t.Fatalf("violations: plain %v dedup %v", plain.Violations, dedup.Violations)
	}
	if dedup.States >= plain.States {
		t.Fatalf("dedup visited %d states, plain %d: no collapse", dedup.States, plain.States)
	}
	if dedup.Deduped == 0 {
		t.Fatal("dedup pruned nothing")
	}

	// A broken protocol must still be caught with dedup on.
	rep, err := Exhaustive(context.Background(), broken, Options{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("dedup exploration missed an agreement violation")
	}
}

// TestCanDecideBivalence checks the bounded valency oracle on the CAS
// protocol: from the initial configuration the full process set is bivalent
// (Lemma 6.4), while after one step the configuration is univalent.
func TestCanDecideBivalence(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.CAS(2) }, []int{0, 1})
	all := []int{0, 1}
	can0, err := CanDecide(f, nil, all, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	can1, err := CanDecide(f, nil, all, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !can0 || !can1 {
		t.Fatalf("initial configuration should be bivalent: can0=%v can1=%v", can0, can1)
	}
	// After process 1's CAS lands, only 1 is decidable.
	can0, err = CanDecide(f, []int{1}, all, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	can1, err = CanDecide(f, []int{1}, all, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if can0 || !can1 {
		t.Fatalf("after step of 1: can0=%v can1=%v, want univalent 1", can0, can1)
	}
}

// TestCanDecideRespectsSet verifies the oracle only schedules the allowed
// process set.
func TestCanDecideRespectsSet(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.CAS(2) }, []int{0, 1})
	// Only process 0 may move: value 1 is unreachable.
	can1, err := CanDecide(f, nil, []int{0}, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if can1 {
		t.Fatal("value 1 should be unreachable via process 0 alone")
	}
	can0, err := CanDecide(f, nil, []int{0}, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !can0 {
		t.Fatal("process 0 alone should decide 0")
	}
}

// TestExhaustiveSingleLocationRows fully or near-fully explores the
// single-location protocols for n=2 processes with opposing inputs —
// catching any interleaving-dependent safety bug near the execution root.
func TestExhaustiveSingleLocationRows(t *testing.T) {
	builds := map[string]func(n int) *consensus.Protocol{
		"add":            consensus.Add,
		"fetch-add":      consensus.FetchAdd,
		"multiply":       consensus.Multiply,
		"fetch-multiply": consensus.FetchMultiply,
		"set-bit":        consensus.SetBit,
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			rep, err := Exhaustive(context.Background(),
				factoryFor(func() *consensus.Protocol { return build(2) }, []int{0, 1}),
				Options{MaxDepth: 12})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("violations: %v", rep.Violations[0])
			}
		})
	}
}

// TestExhaustiveMultiLocationRows explores bounded prefixes of the
// multi-location protocols for n=2.
func TestExhaustiveMultiLocationRows(t *testing.T) {
	builds := map[string]func(n int) *consensus.Protocol{
		"registers":        consensus.Registers,
		"swap":             consensus.Swap,
		"increment-binary": consensus.IncrementBinary,
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			rep, err := Exhaustive(context.Background(),
				factoryFor(func() *consensus.Protocol { return build(2) }, []int{1, 0}),
				Options{MaxDepth: 11})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("violations: %v", rep.Violations[0])
			}
		})
	}
}

// TestObstructionFreedomExplored checks solo termination from every
// configuration within the explored envelope of the CAS and max-register
// protocols.
func TestObstructionFreedomExplored(t *testing.T) {
	rep, err := Exhaustive(context.Background(),
		factoryFor(func() *consensus.Protocol { return consensus.CAS(2) }, []int{0, 1}),
		Options{SoloBudget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("CAS: %v", rep.Violations[0])
	}
	rep, err = Exhaustive(context.Background(),
		factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1}),
		Options{MaxDepth: 8, SoloBudget: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("max-registers: %v", rep.Violations[0])
	}
}

// TestMaxRunsTruncation checks the exploration cap.
func TestMaxRunsTruncation(t *testing.T) {
	rep, err := Exhaustive(context.Background(),
		factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2}),
		Options{MaxDepth: 20, MaxRuns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Fatal("expected truncation")
	}
	if rep.Runs > 5 {
		t.Fatalf("runs = %d beyond cap", rep.Runs)
	}
}

// refuseForkStepper is a one-shot read-then-decide protocol whose stepper
// implements no sim.Forker, counting every system built and every stepper
// halted so tests can check that each one was closed.
type refuseForkStepper struct {
	input  int
	done   bool
	halted bool
	count  *refuseForkCount
}

type refuseForkCount struct{ built, halted int }

func (s *refuseForkStepper) Poise() *sim.OpInfo {
	if s.done {
		return nil
	}
	return &readLoc0
}
func (s *refuseForkStepper) Resume(machine.Value) bool   { s.done = true; return true }
func (s *refuseForkStepper) Outcome() (bool, int, error) { return s.done, s.input, nil }
func (s *refuseForkStepper) Halt() {
	if !s.halted {
		s.halted = true
		s.count.halted++
	}
}

// TestNotForkableRefused: systems whose steppers cannot fork are refused
// with sim.ErrNotForkable — there is no replay fallback — by both
// Exhaustive (at every worker count, with and without solo probes) and
// CanDecide, and every system built on the way is closed.
func TestNotForkableRefused(t *testing.T) {
	count := &refuseForkCount{}
	f := func() (*sim.System, error) {
		inputs := []int{0, 1}
		steppers := make([]sim.Stepper, len(inputs))
		for i, in := range inputs {
			steppers[i] = &refuseForkStepper{input: in, count: count}
		}
		count.built += len(steppers)
		return sim.NewSystemSteppers(machine.New(machine.SetReadWrite, 1), inputs, steppers), nil
	}
	for _, opts := range []Options{{}, {Dedup: true}, {Workers: 4}, {SoloBudget: 3}} {
		if _, err := Exhaustive(context.Background(), f, opts); !errors.Is(err, sim.ErrNotForkable) {
			t.Fatalf("Exhaustive(%+v): err = %v, want sim.ErrNotForkable", opts, err)
		}
	}
	if _, err := CanDecide(f, nil, []int{0, 1}, 1, 4); !errors.Is(err, sim.ErrNotForkable) {
		t.Fatalf("CanDecide: err = %v, want sim.ErrNotForkable", err)
	}
	if count.built == 0 || count.halted != count.built {
		t.Fatalf("%d steppers built, %d halted: some system was left open", count.built, count.halted)
	}
}
