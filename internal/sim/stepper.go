package sim

import (
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"

	"repro/internal/machine"
)

// Stepper is a resumable process: the step-VM's view of one participant.
// Between scheduler steps a Stepper sits at a poise point, exposing the one
// atomic instruction it will perform when next scheduled; System.Step
// executes that instruction against the shared memory and resumes the
// Stepper with the result, synchronously, on the caller's stack.
//
// A Stepper may also finish before poising any instruction (a process that
// decides on its input alone); Poise reports ok=false and Outcome says how
// it finished.
//
// Implementations need not be safe for concurrent use: a System is
// single-threaded, and the batch runner gives every run its own System.
type Stepper interface {
	// Poise returns the instruction the process will perform when next
	// resumed. ok=false means the process has finished (decided or failed);
	// consult Outcome. Poise is idempotent and writes nothing: a forked
	// system reads a stale poise through it while other goroutines may be
	// forking the same stepper (see System.Fork). The returned Args may
	// point into the stepper's own storage, valid until its next Resume.
	Poise() (info OpInfo, ok bool)
	// Resume delivers the result of the poised instruction and advances the
	// process to its next poise point or to its end. done=true means the
	// process finished (see Outcome) and must not be resumed again.
	Resume(res machine.Value) (done bool)
	// Outcome reports how a finished process ended: a decision, or a
	// failure. It is meaningful only after Poise reported ok=false or
	// Resume reported done.
	Outcome() (decided bool, decision int, err error)
	// Halt tears the process down (crash or system close), releasing any
	// resource the adapter holds. It must be idempotent and safe to call at
	// any poise point.
	Halt()
}

// Forker is the optional Stepper extension behind System.Fork: a stepper
// that can produce an independent copy of itself at its current poise
// point. Explicit state machines (the ported protocols in
// internal/consensus) implement it with a struct copy, making a fork
// O(local state). A system forks natively iff every process implements
// Forker; the built-in Body adapters instead fork by result-replay (see
// replayForker), which keeps System.Fork available for every protocol.
type Forker interface {
	Fork() Stepper
}

// ForkerInto is the optional pooled-forking extension of Forker: ForkInto
// returns an independent copy of the stepper exactly like Fork, but may
// rebuild it inside prev — a discarded stepper popped from a recycled
// System (sim.Pool) — when prev has the same concrete type: the struct is
// overwritten in place, and scratch buffers prev owned alone (collect
// buffers, retired round steppers) are reused instead of allocated. Values
// read from memory and published buffers are immutable and shared with the
// receiver, never copied. Implementations must tolerate prev being nil or
// of a foreign type by falling back to a fresh copy, and must never write
// into state the returned stepper shares with the receiver (the Fork
// independence contract).
type ForkerInto interface {
	Forker
	ForkInto(prev Stepper) Stepper
}

// StateKeyer is the optional Stepper extension behind System.StateKey: a
// canonical 64-bit hash of the process's local state, used as the
// per-process component of the explorer's seen-state dedup key. Two
// steppers whose futures are identical given identical instruction results
// must return equal keys; distinct states should collide only with hash
// probability. The Body adapters hash the process's input plus the sequence
// of instruction results it has consumed (local state is a deterministic
// function of those); explicit state machines hash their actual state,
// which also merges processes that reached the same state along different
// histories.
type StateKeyer interface {
	StateKey() uint64
}

// replayForker is the internal fallback fork path for the Body adapters:
// process-local state lives on a coroutine (or goroutine) stack and cannot
// be copied, but bodies are deterministic, so feeding the recorded sequence
// of instruction results into a fresh adapter rebuilds an equivalent
// process at the same poise point — O(steps taken by this process), without
// touching any memory. clock rebinds the fresh Proc to the forked system's
// step counter.
type replayForker interface {
	forkInto(clock *int64) (Stepper, bool)
}

// maxReplayLog caps the per-process result log behind result-replay
// forking. Explorations sit many orders of magnitude below it; unbounded
// spin runs (the step-throughput benchmarks) cross it, at which point the
// log is dropped and the process simply stops being forkable instead of
// retaining memory proportional to the run length.
var maxReplayLog = 1 << 20

// replayLog is the recording half of replayForker, embedded in both Body
// adapters: the per-process result history — with the system clock value
// observed alongside each result, so replay reproduces Clock() readings —
// plus a canonical hash of it (the adapter's StateKey).
//
// The hash is folded lazily: record only appends, and StateKey folds the
// results logged since the last query (results[hashed:]) into histHash, so
// a Solve, which never asks for a key, hashes nothing on its step path. The
// fold is the same rolling chain an eager hash would compute, so keys are
// bit-identical either way. Once the log overflows maxReplayLog it is
// dropped and record hashes each result eagerly instead.
//
// Logged results are immutable once recorded (record clones them), so a
// replay fork shares the source's log — clipped, so neither side's appends
// reach the other's view — and carries its hash state over instead of
// re-hashing the replayed history.
type replayLog struct {
	id, n, input int
	body         Body
	clock        *int64
	results      []machine.Value
	clocks       []int64
	overflow     bool
	resumes      uint64
	// mu guards the lazy hash state (histHash, hashed), which StateKey
	// advances: keys may be taken concurrently with Forks of the same
	// system, which read it (see System.AppendStateKey).
	mu       sync.Mutex
	histHash uint64
	hashed   int // results[:hashed] are folded into histHash
	// clockDep is set once the body reads Clock(): its local state may then
	// depend on more than the result history, so the adapter withdraws from
	// state-keyed deduplication (see System.StateKey).
	clockDep bool
}

// record notes one consumed instruction result.
func (r *replayLog) record(res machine.Value) {
	r.resumes++
	if r.overflow {
		r.histHash = machine.Mix64(r.histHash ^ machine.HashValue(res))
		return
	}
	if len(r.results) >= maxReplayLog {
		// Fold what the dropped log still owes the hash, then go eager.
		r.foldLocked()
		r.results, r.clocks, r.hashed, r.overflow = nil, nil, 0, true
		r.histHash = machine.Mix64(r.histHash ^ machine.HashValue(res))
		return
	}
	r.results = append(r.results, machine.CloneValue(res))
	r.clocks = append(r.clocks, *r.clock)
}

// foldLocked folds the not yet hashed results into histHash. The caller
// holds mu or owns the log exclusively.
func (r *replayLog) foldLocked() {
	for _, res := range r.results[r.hashed:] {
		r.histHash = machine.Mix64(r.histHash ^ machine.HashValue(res))
	}
	r.hashed = len(r.results)
}

// StateKey hashes (input, result history); see StateKeyer.
func (r *replayLog) StateKey() uint64 {
	r.mu.Lock()
	r.foldLocked()
	h := machine.Mix64(uint64(r.input) ^ r.histHash)
	r.mu.Unlock()
	return machine.Mix64(h ^ r.resumes)
}

// shareInto hands the log and its hash state to f, a fresh adapter that has
// just replayed it. The two slices are clipped, so an append on either side
// reallocates rather than writing into the other's view.
func (r *replayLog) shareInto(f *replayLog) {
	f.results, f.clocks = slices.Clip(r.results), slices.Clip(r.clocks)
	f.resumes = r.resumes
	r.mu.Lock()
	f.histHash, f.hashed = r.histHash, r.hashed
	r.mu.Unlock()
}

func (r *replayLog) clockDependent() bool { return r.clockDep }

// coroStepper adapts a function-shaped Body onto the Stepper interface using
// a pull coroutine (iter.Pull): the body runs on its own stack and control
// transfers directly between it and the VM at poise points — no scheduler
// round trip, no channel operation, no allocation per step. It is the only
// Body adapter outside the package's tests.
type coroStepper struct {
	replayLog
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
	c := &coroStepper{replayLog: replayLog{id: id, n: n, input: input, body: body, clock: clock}}
	seq := func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && errors.Is(err, errKilled) {
					return // orderly shutdown via Halt
				}
				c.err = fmt.Errorf("sim: process %d failed: %v", id, r)
			}
		}()
		p := &Proc{id: id, n: n, input: input, clock: clock, clockSeen: &c.clockDep}
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

func (c *coroStepper) Poise() (OpInfo, bool) {
	if c.finished {
		return OpInfo{}, false
	}
	return c.slot.info, true
}

func (c *coroStepper) Resume(res machine.Value) bool {
	c.record(res)
	return c.deliver(res)
}

// deliver hands res to the body, without recording it.
func (c *coroStepper) deliver(res machine.Value) bool {
	c.slot.res = res
	if _, ok := c.next(); !ok {
		c.finished = true
	}
	return c.finished
}

// forkInto implements replayForker: a fresh coroutine re-runs the body over
// the recorded results, landing at the same poise point, and then shares
// the source's log (see replayLog). The body gets its own copy of each
// result, since it may keep and mutate what it receives. The forked
// system's clock temporarily replays its historical values so a body that
// reads Clock() recomputes exactly the state the original reached; the
// fork-time value is restored before the stepper is handed back.
func (c *coroStepper) forkInto(clock *int64) (Stepper, bool) {
	if c.overflow {
		return nil, false
	}
	saved := *clock
	*clock = 0 // the original body started at step 0
	f := newCoroStepper(c.id, c.n, c.input, clock, c.body)
	for i, res := range c.results {
		*clock = c.clocks[i]
		f.deliver(machine.CloneValue(res))
	}
	*clock = saved
	c.shareInto(&f.replayLog)
	return f, true
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
