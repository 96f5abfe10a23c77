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
// returns an independent copy of the stepper at its current poise point.
// prev is the storage the copy may be rebuilt in: nil for a fresh copy, or
// a discarded stepper popped from a recycled System (sim.Pool). When prev
// has the same concrete type the struct is overwritten in place and scratch
// buffers prev owned alone (collect buffers, retired round steppers) are
// reused instead of allocated; when prev is nil or of a foreign type the
// copy is built in fresh storage by the same statements. Values read from
// memory and published buffers are immutable and shared with the receiver,
// never copied. Implementations must never write into state the returned
// stepper shares with the receiver, and the copy's poised instruction must
// not point into the receiver: after the struct copy, an Args slice that
// points into an array inside the stepper is re-pointed at the copy's own
// array, or recycling the receiver would silently rewrite the fork's
// instruction. Explicit state machines (the ported protocols in
// internal/consensus) implement it with a struct copy, making a fork
// O(local state). A system forks iff every live process implements Forker;
// the Body adapter does not, so Body systems run but never fork.
type Forker interface {
	ForkInto(prev Stepper) Stepper
}

// StateKeyer is the optional Stepper extension behind System.StateKey: a
// canonical 64-bit hash of the process's local state, used as the
// per-process component of the explorer's seen-state dedup key. Two
// steppers whose futures are identical given identical instruction results
// must return equal keys; distinct states should collide only with hash
// probability. Explicit state machines hash their actual state, which also
// merges processes that reached the same state along different histories.
// The Body adapter has no key: its local state lives on a coroutine stack.
type StateKeyer interface {
	StateKey() uint64
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
