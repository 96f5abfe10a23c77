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

// ErrNotForkable is returned by System.Fork when some process's stepper
// supports neither native forking (Forker) nor result-replay (the built-in
// Body adapters, within their log budget).
var ErrNotForkable = errors.New("sim: stepper does not support forking")

// doneStepper stands in for a finished or crashed process in a forked
// system: it only has to report the recorded outcome.
type doneStepper struct {
	decided  bool
	decision int
	err      error
}

func (d doneStepper) Poise() (OpInfo, bool)       { return OpInfo{}, false }
func (d doneStepper) Resume(machine.Value) bool   { return true }
func (d doneStepper) Outcome() (bool, int, error) { return d.decided, d.decision, d.err }
func (d doneStepper) Halt()                       {}
func (d doneStepper) Fork() Stepper               { return d }

// Fork returns an independent copy of the system at its current
// configuration: same memory contents (cloned in O(locations)), same
// poised instructions, decisions, crashes, and step count. The fork and the
// original never observe each other's subsequent steps.
//
// Live processes fork natively when their stepper implements Forker — a
// struct copy, O(local state) — and otherwise by result-replay: the Body
// adapters record the instruction results each process has consumed, and a
// fresh coroutine re-runs the deterministic body over that log, which costs
// O(steps taken by that process) but works for every protocol. Finished and
// crashed processes fork as stubs. ErrNotForkable is returned (and the
// partial fork torn down) only for external Stepper implementations that
// support neither path.
//
// Concurrency: Fork only reads the receiver, so multiple goroutines may
// Fork the same System concurrently — and transfer the forks across
// goroutines — provided no goroutine concurrently calls Step, Crash, or
// Close on it. External Forker implementations must honor the same
// contract (the built-in steppers fork by copying). The parallel explorer
// relies on this when its workers fork a shared configuration's descendants
// from several deques at once.
//
// With a Pool attached (SetPool), Fork first tries to rebuild the copy
// inside a recycled System, reusing its memory clone buffers, process
// states, cached runs, and — through ForkerInto — the recycled steppers'
// own heap state. In steady state a fork/step/close cycle then allocates
// nothing.
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
	} else {
		s.mem.CloneInto(n.mem)
	}
	n.inputs = s.inputs // never mutated after construction
	n.steps = s.steps
	n.tracing, n.nofuse = s.tracing, s.nofuse
	n.pool, n.pooled = s.pool, s.pool != nil
	n.closed = false
	// Delivery state: the layout slices are structural and immutable after
	// construction, so the fork shares them; the drop budget consumed so far
	// is configuration state and copies.
	n.deliver, n.dropsUsed = s.deliver, s.dropsUsed
	n.chanLocs, n.chanStride = s.chanLocs, s.chanStride
	n.trace = n.trace[:0]
	if len(s.trace) > 0 {
		n.trace = append(n.trace, s.trace...)
	}
	for i, ps := range s.procs {
		nps := n.procs[i]
		prev := nps.st // recycled stepper storage, reusable via ForkerInto
		if prev == &nps.doneSt {
			// The slot last held a terminal stub; the displaced live stepper
			// was parked in spare.
			prev = nps.spare
		}
		nps.rp, nps.run, nps.pos = nil, nps.run[:0], 0
		nps.poised, nps.hasPoise = OpInfo{}, false
		nps.decided, nps.decision = ps.decided, ps.decision
		nps.crashed, nps.err = ps.crashed, ps.err
		// The fork is at the source's exact configuration, so the cached
		// StateHash128 contribution carries over verbatim (stale or not).
		nps.hcLo, nps.hcHi = ps.hcLo, ps.hcHi
		nps.hcKeyed, nps.hcAdapter, nps.hcValid = ps.hcKeyed, ps.hcAdapter, ps.hcValid
		var st Stepper
		switch {
		case !ps.hasPoise || ps.crashed:
			nps.spare = prev // keep the live stepper storage for a later fork
			nps.doneSt = doneStepper{decided: ps.decided, decision: ps.decision, err: ps.err}
			st = &nps.doneSt
		default:
			if fi, ok := ps.st.(ForkerInto); ok {
				st = fi.ForkInto(prev)
			} else if f, ok := ps.st.(Forker); ok {
				st = f.Fork()
			} else if rf, ok := ps.st.(replayForker); ok {
				if st, ok = rf.forkInto(&n.steps); !ok {
					st = nil
				}
			}
			if st == nil {
				for _, built := range n.procs[:i+1] {
					if built.st != nil {
						built.st.Halt()
					}
				}
				return nil, fmt.Errorf("%w: process %d (%T)", ErrNotForkable, i, ps.st)
			}
		}
		nps.st = st
		if ps.rp != nil {
			if rp, ok := st.(RunPoiser); ok {
				// The forked stepper is at the source's exact state, so the
				// unexecuted remainder of the source's straight-line run is
				// its run too: inherit it instead of re-asking the stepper.
				// (A fresh PoiseRun could only extend it, and a shorter run
				// just means an earlier re-poise — always sound.)
				nps.rp = rp
				nps.run = append(nps.run, ps.run[ps.pos:]...) // non-empty: the source is live
				// Sever argument aliasing: the inherited entries' Args point
				// into the source stepper's reusable poise slots, which go
				// stale the moment the source re-poises — or, under pooling,
				// when its recycled storage is re-poised by another fork.
				// Two passes: argsBuf may grow (and move) while gathering.
				nps.argsBuf = nps.argsBuf[:0]
				for i := range nps.run {
					nps.argsBuf = append(nps.argsBuf, nps.run[i].Args...)
				}
				for i, off := 0, 0; i < len(nps.run); i++ {
					if na := len(nps.run[i].Args); na > 0 {
						nps.run[i].Args = nps.argsBuf[off : off+na : off+na]
						off += na
					}
				}
				nps.hasPoise = true
				continue
			}
		}
		if !ps.hasPoise || ps.crashed {
			// Terminal stub: the outcome fields are already copied.
			continue
		}
		nps.refresh()
	}
	n.hcAggLo, n.hcAggHi = s.hcAggLo, s.hcAggHi
	n.hcUnkeyed, n.hcAdapters = s.hcUnkeyed, s.hcAdapters
	n.hcDirty = append(n.hcDirty[:0], s.hcDirty...)
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

// ForksNatively reports whether every live process is an explicit forkable
// state machine (implements Forker), making Fork O(state) — no coroutine
// construction, no result-replay. The explorer and the lower-bound
// configuration cache use it to decide whether holding snapshots is cheap.
func (s *System) ForksNatively() bool {
	if s.closed {
		return false
	}
	for _, ps := range s.procs {
		if !ps.hasPoise || ps.crashed {
			continue
		}
		if _, ok := ps.st.(Forker); !ok {
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
// seen-state table relies on. ok is false when some live process implements
// neither StateKeyer nor the built-in adapters' history hash, in which case
// deduplication must stay off.
func (s *System) StateKey() (key string, ok bool) {
	dst, ok := s.AppendStateKey(make([]byte, 0, 8+10*len(s.procs)))
	return string(dst), ok
}

// AppendStateKey is StateKey appending into dst, for callers that look the
// key up allocation-free (map[string(dst)] compiles to a no-alloc access).
//
// Concurrency: it is safe concurrently with Forks and other keys of the
// same system, but not with Step/Crash/Close. It reads the receiver except
// for a Body adapter's lazily folded history hash, which the adapter
// advances under its own lock (see replayLog).
func (s *System) AppendStateKey(dst []byte) (key []byte, ok bool) {
	if s.closed {
		return dst, false
	}
	dst = binary.LittleEndian.AppendUint64(dst, s.mem.Fingerprint64())
	adapters := false
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
			// A Body that has read Clock() may carry state the result
			// history does not determine: no sound key exists for it.
			if cd, ok := ps.st.(interface{ clockDependent() bool }); ok {
				if cd.clockDependent() {
					return dst, false
				}
				adapters = true
			}
			dst = append(dst, 'l')
			dst = binary.LittleEndian.AppendUint64(dst, k.StateKey())
		}
	}
	// A live Body adapter can read Clock() at any future point, and a
	// process that has not read it yet gives no warning; folding the global
	// step count into the key makes pruning sound for them (two merged
	// configurations then expose identical clocks to every future read).
	// Explicit steppers have no clock access, so their keys stay
	// step-count-free and merge across schedules of different lengths.
	if adapters {
		dst = binary.AppendUvarint(dst, uint64(s.steps))
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
