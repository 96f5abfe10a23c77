package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/machine"
)

// forkTally counts successful System.Fork calls process-wide. It exists for
// throughput accounting (perfbench's sim.forks_per_state probe): one atomic
// add per fork, read via ForkTally deltas around a measured region.
var forkTally atomic.Int64

// ForkTally returns the monotonically increasing count of successful Forks
// performed by this process. Meaningful only as deltas.
func ForkTally() int64 { return forkTally.Load() }

// ErrNotForkable is returned by System.Fork when some live process's
// stepper does not implement Forker — the Body adapter, or an external
// stepper — and by the explorer for a system that cannot fork.
var ErrNotForkable = errors.New("sim: stepper does not support forking")

// doneStepper stands in for a finished or crashed process in a forked
// system: it only has to report the recorded outcome.
type doneStepper struct {
	decided  bool
	decision int
	err      error
}

func (d doneStepper) Poise() *OpInfo              { return nil }
func (d doneStepper) Resume(machine.Value) bool   { return true }
func (d doneStepper) Outcome() (bool, int, error) { return d.decided, d.decision, d.err }
func (d doneStepper) Halt()                       {}

// Fork returns an independent copy of the system at its current
// configuration: same memory contents, same poised instructions, decisions,
// crashes, and step count. The fork and the original never observe each
// other's subsequent steps.
//
// A fork copies only what a step can change. The memory clone copies the
// location structs and shares every stored value and queue, which are
// immutable once stored (machine.Memory.CloneInto). Each live process forks
// through its stepper's ForkInto, over the stepper the target slot last held
// (nil in a freshly built System): the built-in steppers are struct copies
// that share every value they read from memory and every buffer they
// published, by the same rule. Finished and crashed processes fork as stubs.
// A live process whose stepper does not implement Forker — the Body adapter,
// whose local state lives on a coroutine stack — makes Fork fail with
// ErrNotForkable, and the partial fork is torn down.
//
// The fork calls no stepper's Poise: a poised instruction is stepper state,
// which ForkInto copies, and the System reads it through Poise where it is
// needed. A fork that is stepped once and then discarded (the explorer's
// deduplicated children) reads the poise of the one process that stepped.
//
// Concurrency: Fork only reads the receiver, and so do Poised, Live and
// AppendLive (Stepper.Poise writes nothing, and the live list is copied
// into the fork's own storage), so multiple goroutines may Fork the same
// System concurrently — and transfer the forks across goroutines —
// provided no goroutine concurrently calls Step, Crash, or Close on it.
// External Forker implementations must honor the same contract. A stepper
// that shares mutable state with its forks must mark it shared without a
// data race (the MP.QSC stepper's bucket array uses an atomic flag).
//
// With a Pool attached (SetPool), Fork first tries to rebuild the copy
// inside a recycled System, reusing its memory clone buffers, process
// states, and — through ForkInto — the recycled steppers' storage. In
// steady state a fork/step/close cycle then allocates nothing: the live list
// too is copied into the recycled System's capacity.
func (s *System) Fork() (*System, error) {
	if s.closed {
		return nil, ErrClosed
	}
	n := s.recycled()
	if n == nil {
		n = &System{mem: s.mem.Clone()}
		n.procs = make([]*procState, len(s.procs))
		states := make([]procState, len(s.procs)) // one backing array for all
		for i := range states {
			n.procs[i] = &states[i]
		}
		// Room for every process, so a recycled fork of any same-sized
		// source copies its live list without growing it.
		n.live = make([]int, 0, len(s.procs))
	} else {
		s.mem.CloneInto(n.mem)
	}
	n.inputs = s.inputs // never mutated after construction
	n.steps = s.steps
	n.tracing = s.tracing
	n.pool, n.pooled = s.pool, s.pool != nil
	n.closed = false
	// Delivery state: the layout slices are structural and immutable after
	// construction, so the fork shares them; the drop budget consumed so far
	// is configuration state and copies.
	n.deliver, n.dropsUsed = s.deliver, s.dropsUsed
	n.chanLocs, n.chanStride, n.ranks = s.chanLocs, s.chanStride, s.ranks
	n.trace = n.trace[:0]
	if len(s.trace) > 0 {
		n.trace = append(n.trace, s.trace...)
	}
	for i, ps := range s.procs {
		nps := n.procs[i]
		prev := nps.st // recycled stepper storage, reusable via ForkInto
		if prev == &nps.doneSt {
			// The slot last held a terminal stub; the displaced live stepper
			// was parked in spare.
			prev = nps.spare
		}
		nps.hasPoise = false
		nps.decided, nps.decision = ps.decided, ps.decision
		nps.crashed, nps.err = ps.crashed, ps.err
		// The fork is at the source's exact configuration, so the cached
		// StateHash128 contribution carries over verbatim (stale or not).
		nps.hcLo, nps.hcHi = ps.hcLo, ps.hcHi
		nps.hcKeyed, nps.hcValid = ps.hcKeyed, ps.hcValid
		if !ps.hasPoise || ps.crashed {
			// Terminal stub: the outcome fields are already copied.
			nps.spare = prev // keep the live stepper storage for a later fork
			nps.doneSt = doneStepper{decided: ps.decided, decision: ps.decision, err: ps.err}
			nps.st = &nps.doneSt
			continue
		}
		var st Stepper
		if f, ok := ps.st.(Forker); ok {
			st = f.ForkInto(prev)
		}
		if st == nil {
			for _, built := range n.procs[:i+1] {
				if built.st != nil {
					built.st.Halt()
				}
			}
			return nil, fmt.Errorf("%w: process %d (%T)", ErrNotForkable, i, ps.st)
		}
		// The copy sits at the source's poise point, so it is live.
		nps.st = st
		nps.hasPoise = true
	}
	n.hcAggLo, n.hcAggHi = s.hcAggLo, s.hcAggHi
	n.hcUnkeyed = s.hcUnkeyed
	n.hcDirty = append(n.hcDirty[:0], s.hcDirty...)
	// Copied, not shared: each side drops its own finished processes.
	n.live = append(n.live[:0], s.live...)
	forkTally.Add(1)
	return n, nil
}

// recycled pops a compatible recycled System from the pool, or returns nil
// when pooling is off, the pool is empty, or the candidate's shape does not
// match (a pool shared across differently-sized systems).
func (s *System) recycled() *System {
	if s.pool == nil {
		return nil
	}
	n := s.pool.get()
	if n == nil {
		return nil
	}
	if len(n.procs) != len(s.procs) {
		return nil // drop the misfit; the GC reclaims it
	}
	return n
}

// ForksNatively reports whether Fork succeeds: the system is open and every
// live process's stepper implements Forker. The explorer refuses a root that
// fails it before walking, and the handle and lower-bound caches hold
// snapshots only of systems that pass it.
func (s *System) ForksNatively() bool {
	if s.closed {
		return false
	}
	for _, pid := range s.live {
		if _, ok := s.procs[pid].st.(Forker); !ok {
			return false
		}
	}
	return true
}

// StateKey returns a canonical encoding of the configuration — the memory's
// incremental fingerprint, then per process either its terminal status
// (decision value, crash, failure) or its local-state key. Configurations
// with equal keys behave identically under every future schedule (up to
// 64-bit hash collisions per component), which is what the explorer's
// seen-state table relies on. ok is false when some live process does not
// implement StateKeyer, in which case deduplication must stay off.
func (s *System) StateKey() (key string, ok bool) {
	dst, ok := s.AppendStateKey(make([]byte, 0, 8+10*len(s.procs)))
	return string(dst), ok
}

// AppendStateKey is StateKey appending into dst, for callers that look the
// key up allocation-free (map[string(dst)] compiles to a no-alloc access).
//
// Concurrency: it only reads the receiver, so it is safe concurrently with
// Forks and other keys of the same system, but not with Step/Crash/Close.
func (s *System) AppendStateKey(dst []byte) (key []byte, ok bool) {
	if s.closed {
		return dst, false
	}
	dst = binary.LittleEndian.AppendUint64(dst, s.mem.Fingerprint64())
	for _, ps := range s.procs {
		switch {
		case ps.crashed:
			dst = append(dst, 'x')
		case ps.decided:
			dst = append(dst, 'd')
			dst = binary.AppendVarint(dst, int64(ps.decision))
		case ps.err != nil:
			dst = append(dst, 'e')
		case !ps.hasPoise:
			dst = append(dst, '?')
		default:
			k, keyed := ps.st.(StateKeyer)
			if !keyed {
				return dst, false
			}
			key, _ := k.StateKey(nil)
			dst = append(dst, 'l')
			dst = binary.LittleEndian.AppendUint64(dst, key)
		}
	}
	// Channel systems: the remaining drop budget shapes the enabled delivery
	// branches, so configurations that differ only in drops consumed must
	// not merge. Guarded on channel presence, so shared-memory systems keep
	// their exact historical key bytes.
	if s.hasChans() {
		dst = append(dst, 'c')
		dst = binary.AppendUvarint(dst, uint64(s.dropsUsed))
	}
	return dst, true
}
