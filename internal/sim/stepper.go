package sim

import (
	"errors"
	"fmt"
	"iter"

	"repro/internal/machine"
)

// Stepper is a resumable process: the step-VM's view of one participant.
// Between scheduler steps a Stepper sits at a poise point, exposing the one
// atomic instruction it will perform when next scheduled; System.Step
// executes that instruction against the shared memory and resumes the
// Stepper with the result, synchronously, on the caller's stack.
//
// A Stepper may also finish before poising any instruction (a process that
// decides on its input alone); Poise then returns nil and Outcome says how
// it finished.
//
// Implementations need not be safe for concurrent use: a System is
// single-threaded, and the batch runner gives every run its own System.
type Stepper interface {
	// Poise returns the instruction the process will perform when next
	// resumed, or nil once the process has finished (decided or failed;
	// consult Outcome). The instruction is stepper state, not a copy: the
	// pointer and everything it reaches stay valid and unchanged until the
	// next Resume, Halt, or ForkInto over this stepper, and callers must
	// not write through it. Poise is idempotent and writes nothing: a
	// forked system reads its processes' poise through it while other
	// goroutines may be forking the same stepper (see System.Fork). A
	// stepper whose instruction's Args point into its own storage must
	// point a fork's Args at the fork's own copy (see Forker).
	Poise() *OpInfo
	// Resume delivers the result of the poised instruction and advances the
	// process to its next poise point or to its end. done=true means the
	// process finished (see Outcome) and must not be resumed again. done is
	// exactly whether Poise now returns nil: System.Step learns that a
	// process finished from done alone.
	Resume(res machine.Value) (done bool)
	// Outcome reports how a finished process ended: a decision, or a
	// failure. It is meaningful only after Poise returned nil or Resume
	// reported done.
	Outcome() (decided bool, decision int, err error)
	// Halt tears the process down (crash or system close), releasing any
	// resource the adapter holds. It must be idempotent and safe to call at
	// any poise point.
	Halt()
}

// Forker is the optional Stepper extension behind System.Fork: ForkInto
// returns an independent copy of the stepper at its current poise point,
// built in prev when prev is a stepper of the copy's type (the one a
// recycled System's slot last held, sim.Pool) and in fresh storage when it
// is nil or foreign (ForkTarget). A stepper owns its mutable state, in
// fields and buffers of its own, so the copy is a struct copy plus a copy
// of each owned buffer into prev's. What the copy shares with the receiver
// is immutable (values read from memory, published buffers) or copied on
// write (the MP.QSC bucket array), and its poised instruction must not
// point into the receiver: an Args slice that points into an array inside
// the stepper is re-pointed at the copy's own array, or recycling the
// receiver would rewrite the fork's instruction. A system forks iff every
// live process implements Forker; the Body adapter does not.
type Forker interface {
	ForkInto(prev Stepper) Stepper
}

// ForkTarget returns the storage a ForkInto rebuilds its copy in: prev
// itself when it is a non-nil *T, and a new T when prev is nil, a nil *T or
// of another type.
func ForkTarget[T any](prev any) *T {
	if p, ok := prev.(*T); ok && p != nil {
		return p
	}
	return new(T)
}

// StateKeyer is the optional Stepper extension behind the configuration
// keys: a canonical 64-bit hash of the process's local state, the
// per-process component of the explorer's seen-state dedup key.
//
// relabel == nil asks for the exact key, and ok is always true. Steppers
// whose futures are identical given identical instruction results must
// return equal keys; distinct states should collide only with hash
// probability. Explicit state machines hash their actual state, which also
// merges processes that reached the same state along different histories.
//
// A non-nil relabel asks for the symmetric key: the exact key's folds plus
// relabel(loc) for every location the stepper's current and future
// behavior may reference, in a fixed, state-independent role order. ok is
// false when the stepper has none, and the configuration falls back to the
// exact key. ok=true is a double contract. Location uniformity: steppers
// with equal keys under relabelings that identify their references have
// futures that correspond under that relabeling. Pid independence: the
// stepper's behavior depends on its local state, never on its process id,
// so configurations that differ by a permutation of the process vector are
// equivalent; a stepper whose id is behavioral state folds the id.
//
// The Body adapter has no key: its local state lives on a coroutine stack.
type StateKeyer interface {
	StateKey(relabel func(loc int) int) (key uint64, ok bool)
}

// MixKey folds x into the rolling key h.
func MixKey(h, x uint64) uint64 { return machine.Mix64(h ^ x) }

// FoldSpan folds relabel(loc) for the n locations from base into h, in
// ascending order; the exact key (relabel == nil) folds none.
func FoldSpan(h uint64, relabel func(loc int) int, base, n int) uint64 {
	if relabel != nil {
		for loc := base; loc < base+n; loc++ {
			h = MixKey(h, uint64(relabel(loc)))
		}
	}
	return h
}

// coroStepper adapts a function-shaped Body onto the Stepper interface using
// a pull coroutine (iter.Pull): the body runs on its own stack and control
// transfers directly between it and the VM at poise points — no scheduler
// round trip, no channel operation, no allocation per step. It is the only
// Body adapter outside the package's tests. It runs a body and nothing
// more: the body's state lives on the coroutine stack, so the adapter
// implements neither Forker nor StateKeyer.
type coroStepper struct {
	// slot is the single rendezvous cell shared with the body's coroutine.
	// Accesses never race: control is in exactly one of the two frames at a
	// time (the defining property of a coroutine).
	slot struct {
		info OpInfo        // poised instruction, body → VM
		res  machine.Value // instruction result, VM → body
	}
	next     func() (struct{}, bool)
	stop     func()
	finished bool
	decided  bool
	decision int
	err      error
}

// newCoroStepper starts body as a coroutine and runs it to its first poise
// point (or to completion, for a body that decides without any instruction).
func newCoroStepper(id, n, input int, clock *int64, body Body) *coroStepper {
	c := &coroStepper{}
	seq := func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && errors.Is(err, errKilled) {
					return // orderly shutdown via Halt
				}
				c.err = fmt.Errorf("sim: process %d failed: %v", id, r)
			}
		}()
		p := &Proc{id: id, n: n, input: input, clock: clock}
		p.submit = func(info OpInfo) machine.Value {
			c.slot.info = info
			if !yield(struct{}{}) {
				// The VM called stop: unwind the body.
				panic(errKilled)
			}
			return c.slot.res
		}
		v := body(p)
		c.decided, c.decision = true, v
	}
	c.next, c.stop = iter.Pull(seq)
	if _, ok := c.next(); !ok {
		c.finished = true
	}
	return c
}

func (c *coroStepper) Poise() *OpInfo {
	if c.finished {
		return nil
	}
	return &c.slot.info
}

func (c *coroStepper) Resume(res machine.Value) bool {
	c.slot.res = res
	if _, ok := c.next(); !ok {
		c.finished = true
	}
	return c.finished
}

func (c *coroStepper) Outcome() (bool, int, error) {
	return c.decided, c.decision, c.err
}

func (c *coroStepper) Halt() {
	// stop resumes the coroutine with yield returning false; the body
	// unwinds via the errKilled panic, which the seq defer absorbs. stop is
	// idempotent and a no-op once the sequence has returned.
	c.stop()
	c.finished = true
}
