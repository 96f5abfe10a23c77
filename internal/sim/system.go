package sim

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/machine"
)

// Sentinel errors reported by System.
var (
	// ErrNotLive is returned when stepping a process that has decided,
	// crashed, or failed.
	ErrNotLive = errors.New("sim: process is not live")
	// ErrClosed is returned when using a closed System.
	ErrClosed = errors.New("sim: system closed")
)

// procState is the System-side view of one process.
type procState struct {
	// st is the stepper; a fork's terminal slot keeps the one it last held
	// (nil if none) for a later fork, so st is read only while live.
	st Stepper
	// hasPoise records that st is poised on an instruction (st.Poise is not
	// nil). The instruction itself is read from st wherever it is needed:
	// it is stepper state, so the System keeps no copy of it.
	hasPoise bool
	decided  bool
	decision int
	crashed  bool
	err      error
	// hcLo/hcHi cache this process's contribution to the incremental
	// StateHash128 (see statehash.go); hcKeyed caches whether the process is
	// keyable. hcValid marks the cache current — invariant: a process is
	// either hcValid (its contribution is folded into the System aggregates)
	// or queued exactly once in System.hcDirty.
	hcLo, hcHi uint64
	hcKeyed    bool
	hcValid    bool
}

func (ps *procState) live() bool {
	return ps.hasPoise && !ps.crashed
}

func (ps *procState) recordOutcome() {
	decided, decision, err := ps.st.Outcome()
	ps.decided, ps.decision = decided, decision
	if err != nil {
		ps.err = err
	}
}

// System is one execution of n processes against a shared memory. It is
// driven step by step: Step(pid) lets process pid perform its poised
// instruction, synchronously on the caller's stack. A System is
// single-threaded; independent Systems (e.g. the batch runner's) are fully
// isolated from each other.
type System struct {
	mem    *machine.Memory
	inputs []int
	procs  []*procState
	// live lists the ids of the live processes (procState.live), ascending.
	// adopt fills it and dropLive shrinks it where a process stops being
	// live — a finish or failure in step, and Crash — which happens at most
	// once per process, so AppendLive copies it instead of rescanning every
	// process on every step. A fork copies it (never shares it: each side
	// drops from its own).
	live    []int
	steps   int64
	trace   []StepInfo // recorded when tracing enabled
	tracing bool
	closed  bool
	// pool, when non-nil, recycles forked Systems across Fork/Close cycles;
	// see Pool. Inherited by forks.
	pool *Pool
	// pooled marks a System built by a pooled Fork: its Close returns it to
	// pool instead of abandoning it.
	pooled bool
	// Incremental StateHash128 state (statehash.go): XOR aggregates of the
	// per-process hash contributions, the count of unkeyable processes
	// among the valid caches, and the queue of processes whose cached
	// contribution is stale.
	hcAggLo, hcAggHi uint64
	hcUnkeyed        int
	hcDirty          []int
	// Delivery adversary state (delivery.go). chanLocs/chanStride are the
	// structural layout of the virtual pid space, and ranks holds the rank
	// arguments of the deliver/drop instructions, all fixed at
	// construction; dropsUsed is observable configuration state and folds
	// into every canonical key.
	deliver    Delivery
	chanLocs   []int
	chanStride int
	ranks      []machine.Value
	dropsUsed  int
}

// StepInfo records one executed step.
type StepInfo struct {
	PID    int
	Info   OpInfo
	Result machine.Value
}

// SystemOption configures a System.
type SystemOption func(*System)

// WithTrace records every executed step, retrievable via Trace. Used by the
// lower-bound adversaries, which replay recorded solo executions.
func WithTrace() SystemOption {
	return func(s *System) { s.tracing = true }
}

// NewSystem starts n processes with the given inputs, all running body, and
// returns with every process poised on its first instruction. bodies may
// also differ per process via NewSystemBodies.
func NewSystem(mem *machine.Memory, inputs []int, body Body, opts ...SystemOption) *System {
	bodies := make([]Body, len(inputs))
	for i := range bodies {
		bodies[i] = body
	}
	return NewSystemBodies(mem, inputs, bodies, opts...)
}

// NewSystemBodies is NewSystem with a distinct Body per process.
func NewSystemBodies(mem *machine.Memory, inputs []int, bodies []Body, opts ...SystemOption) *System {
	if len(inputs) != len(bodies) {
		panic("sim: inputs/bodies length mismatch")
	}
	s := newSystem(mem, inputs, opts)
	for i, body := range bodies {
		s.adopt(i, newCoroStepper(i, len(inputs), inputs[i], &s.steps, body))
	}
	return s
}

// NewSystemSteppers builds a system over hand-written Steppers — protocols
// expressed directly as state machines, executed with zero goroutines and
// zero channels. The steppers must be freshly constructed (at their initial
// poise point).
func NewSystemSteppers(mem *machine.Memory, inputs []int, steppers []Stepper, opts ...SystemOption) *System {
	if len(inputs) != len(steppers) {
		panic("sim: inputs/steppers length mismatch")
	}
	s := newSystem(mem, inputs, opts)
	for i, st := range steppers {
		s.adopt(i, st)
	}
	return s
}

func newSystem(mem *machine.Memory, inputs []int, opts []SystemOption) *System {
	s := &System{mem: mem, inputs: append([]int(nil), inputs...)}
	for _, o := range opts {
		o(s)
	}
	s.procs = make([]*procState, len(inputs))
	s.initChannels()
	return s
}

// adopt installs a stepper as process pid and records whether it is poised.
func (s *System) adopt(pid int, st Stepper) {
	ps := &procState{st: st, hasPoise: st.Poise() != nil}
	if !ps.hasPoise {
		ps.recordOutcome()
	}
	s.procs[pid] = ps
	if ps.live() {
		s.live = append(s.live, pid) // adopted in pid order: stays ascending
	}
	s.hcDirty = append(s.hcDirty, pid) // fresh cache: contribution pending
}

// N returns the number of processes.
func (s *System) N() int { return len(s.procs) }

// Mem returns the shared memory. The reference is valid only until Close: a
// pooled System's memory is rebuilt in place for an unrelated fork once the
// System is recycled, so measurements must be snapshotted (mem.Stats())
// while the run is alive.
func (s *System) Mem() *machine.Memory { return s.mem }

// Inputs returns the processes' consensus inputs.
func (s *System) Inputs() []int { return append([]int(nil), s.inputs...) }

// Steps returns the number of executed steps.
func (s *System) Steps() int64 { return s.steps }

// Trace returns the recorded steps (only populated with WithTrace).
func (s *System) Trace() []StepInfo { return s.trace }

// Live reports whether process pid can take a step now. Real pids must be
// live and unblocked (a poised send on a full channel or recv from an empty
// inbox waits); virtual pids at or above N() are live while they name an
// enabled delivery-adversary move.
func (s *System) Live(pid int) bool {
	if pid >= len(s.procs) {
		return s.deliveryLive(pid)
	}
	return pid >= 0 && s.procEnabled(s.procs[pid])
}

// LiveSet returns the ids of all live processes, ascending.
func (s *System) LiveSet() []int {
	return s.AppendLive(nil)
}

// AppendLive appends the ids of all live processes to dst, ascending, and
// returns the extended slice. It is LiveSet without the forced allocation,
// for schedulers on the hot path: on a shared-memory system it copies the
// system's live list, so its cost is the number of live processes, not a
// scan of every process. With channels, the live list is filtered to the
// processes whose poised send or recv is not blocked, and the enabled
// delivery branches follow the real pids (delivery.go): schedulers and
// explorer strategies branch over adversary moves without knowing they
// exist. AppendLive only reads the receiver (see Fork).
func (s *System) AppendLive(dst []int) []int {
	if len(s.chanLocs) == 0 {
		return append(dst, s.live...)
	}
	for _, pid := range s.live {
		if s.procEnabled(s.procs[pid]) {
			dst = append(dst, pid)
		}
	}
	return s.appendDeliveryLive(dst)
}

// dropLive removes pid from the live list once it stops being live.
func (s *System) dropLive(pid int) {
	if i, ok := slices.BinarySearch(s.live, pid); ok {
		s.live = slices.Delete(s.live, i, i+1)
	}
}

// Decided reports process pid's decision, if it has decided.
func (s *System) Decided(pid int) (int, bool) {
	ps := s.procs[pid]
	return ps.decision, ps.decided
}

// Decisions returns all decisions made so far, keyed by process id.
func (s *System) Decisions() map[int]int {
	out := make(map[int]int)
	for i, ps := range s.procs {
		if ps.decided {
			out[i] = ps.decision
		}
	}
	return out
}

// Err returns the first process failure, if any.
func (s *System) Err() error {
	for _, ps := range s.procs {
		if ps.err != nil {
			return ps.err
		}
	}
	return nil
}

// Poised returns a copy of the instruction process pid will perform when
// next scheduled. ok is false if the process is not live. The Args slice may
// be shared (a stepper's argument slot, or for a delivery pid the system's
// rank table) and must not be written.
func (s *System) Poised(pid int) (OpInfo, bool) {
	if pid >= len(s.procs) {
		if !s.deliveryLive(pid) {
			return OpInfo{}, false
		}
		op, loc, rank, _ := s.deliveryChoice(pid)
		return OpInfo{Loc: loc, Op: op, Args: s.ranks[rank : rank+1 : rank+1]}, true
	}
	if pid < 0 {
		return OpInfo{}, false
	}
	ps := s.procs[pid]
	if !s.procEnabled(ps) {
		return OpInfo{}, false
	}
	return *ps.st.Poise(), true
}

// Step lets process pid perform its poised instruction. The instruction is
// applied to memory and the process resumed to its next poise point, all on
// the caller's stack. It returns the executed step, or ErrNotLive / the
// underlying instruction error.
func (s *System) Step(pid int) (StepInfo, error) {
	var step StepInfo
	err := s.step(pid, &step)
	return step, err
}

// step is Step writing the executed step to out, which is left untouched on
// error. A nil out builds no StepInfo unless tracing records one: RunContext,
// which discards every step, pays only for the step itself.
func (s *System) step(pid int, out *StepInfo) error {
	if s.closed {
		return ErrClosed
	}
	if pid >= len(s.procs) {
		return s.stepDelivery(pid, out)
	}
	if pid < 0 {
		return fmt.Errorf("%w: pid %d", ErrNotLive, pid)
	}
	ps := s.procs[pid]
	if !s.procEnabled(ps) {
		return fmt.Errorf("%w: pid %d", ErrNotLive, pid)
	}
	info := ps.st.Poise()
	var (
		res machine.Value
		err error
	)
	if info.Multi != nil {
		err = s.mem.MultiAssign(info.Multi)
	} else {
		res, err = s.mem.Apply(info.Loc, info.Op, info.Args...)
	}
	if err != nil {
		// An illegal instruction is a failure of this process: mark it and
		// tear the stepper down.
		ps.err = fmt.Errorf("sim: process %d: %w", pid, err)
		ps.hasPoise = false
		ps.st.Halt()
		s.dropLive(pid)
		s.hashStale(pid)
		return ps.err
	}
	s.steps++
	if out != nil || s.tracing {
		step := StepInfo{PID: pid, Info: *info, Result: res} // before Resume: it may re-poise over *info
		if s.tracing {
			if len(step.Info.Args) > 0 {
				// Steppers reuse argument slots across poises; snapshot the
				// values so the retained trace can't alias state the resume
				// will overwrite.
				step.Info.Args = append([]machine.Value(nil), step.Info.Args...)
			}
			s.trace = append(s.trace, step)
		}
		if out != nil {
			*out = step
		}
	}
	if ps.st.Resume(res) {
		// Finished: decided, or a body failure after the step (panic
		// between instructions), which surfaces via Err — the process simply
		// stops being live, matching the goroutine engine's behavior.
		ps.hasPoise = false
		ps.recordOutcome()
		s.dropLive(pid)
	}
	s.hashStale(pid)
	return nil
}

// Crash removes process pid from the execution: it is never scheduled again.
// Crashes may happen at any time in the model; algorithms must stay safe.
// Crashing a virtual delivery pid is a no-op: the network is not a process
// (crash adversaries picking from AppendLive may legitimately land on one).
func (s *System) Crash(pid int) {
	if pid < 0 || pid >= len(s.procs) {
		return
	}
	ps := s.procs[pid]
	if !ps.live() {
		return
	}
	ps.crashed = true
	ps.hasPoise = false
	ps.st.Halt()
	s.dropLive(pid)
	s.hashStale(pid)
}

// Close tears down all processes. The System must not be used afterwards.
// It releases the coroutines of processes built from a Body. A System
// built by a pooled Fork is recycled into its Pool (which is why the
// must-not-use-afterwards contract is load-bearing: the next Fork rebuilds
// over the same storage).
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ps := range s.procs {
		if ps.st != nil {
			ps.st.Halt()
		}
	}
	if s.pooled && s.pool != nil {
		s.pool.put(s)
	}
}
