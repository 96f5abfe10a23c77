package sim

import "repro/internal/machine"

// StateHash128 is the fingerprint-only form of AppendStateKey: a 128-bit
// hash of exactly the logical components the key encodes — the memory's
// incremental fingerprint and per process either its terminal status or
// its local-state key — without materializing the key bytes at all. Every seen-state
// table of the explorer claims this fingerprint (outside symmetry
// reduction), so it is the whole keying path of a non-symmetric walk.
//
// It is maintained incrementally, like machine.Fingerprint64: the hash
// combines the memory's rolling 128-bit fingerprint with an XOR aggregate of
// per-process contributions (each seeded with its pid, so permuted local
// states hash differently), and Step/Crash only mark the stepped process's
// cached contribution stale. A query therefore re-hashes the processes that
// moved since the last query — O(1) per intervening step — instead of
// re-streaming every process each time.
//
// Equal configurations always hash equally (the aggregate is a function of
// exactly the fields AppendStateKey encodes); distinct configurations
// collide with ~2^-64 per lane above the 64-bit component hashes the key
// itself is made of; the compacted modes report that fold's risk via
// Report.FalseMergeProb. ok is false in exactly the cases
// AppendStateKey's is: a closed system, or a live process without a state
// key.
//
// Concurrency: unlike AppendStateKey, StateHash128 flushes the stale-cache
// queue into the receiver, so it is NOT safe concurrently with Fork (or
// anything else) on the same System. Callers that share a System across
// goroutines must hash only systems they own — the parallel explorer hashes
// each configuration on the worker that popped it, never a shared one.
func (s *System) StateHash128() (fp machine.Hash128, ok bool) {
	if s.closed {
		return machine.Hash128{}, false
	}
	s.flushStateHash()
	if s.hcUnkeyed > 0 {
		return machine.Hash128{}, false
	}
	mfp := s.mem.Fingerprint128()
	h := machine.SeedHash128().Word(mfp.Lo).Word(mfp.Hi).Word(s.hcAggLo).Word(s.hcAggHi)
	// Channel systems fold the consumed drop budget, like AppendStateKey.
	if s.hasChans() {
		h = h.Word(uint64(s.dropsUsed))
	}
	return h, true
}

// hashStale marks process pid's cached hash contribution stale: the old
// contribution is XORed out of the aggregates immediately (it is cached, so
// this needs no stepper call) and the recompute is deferred to the next
// StateHash128 query. Idempotent between flushes, preserving the invariant
// that a process is hcValid or queued exactly once.
func (s *System) hashStale(pid int) {
	ps := s.procs[pid]
	if !ps.hcValid {
		return // already queued
	}
	ps.hcValid = false
	s.hcAggLo ^= ps.hcLo
	s.hcAggHi ^= ps.hcHi
	if !ps.hcKeyed {
		s.hcUnkeyed--
	}
	s.hcDirty = append(s.hcDirty, pid)
}

// flushStateHash recomputes every queued contribution and folds it back into
// the aggregates, leaving all caches valid.
func (s *System) flushStateHash() {
	for _, pid := range s.hcDirty {
		ps := s.procs[pid]
		if ps.hcValid {
			continue
		}
		ps.hcLo, ps.hcHi, ps.hcKeyed = procHashContribution(pid, ps)
		ps.hcValid = true
		s.hcAggLo ^= ps.hcLo
		s.hcAggHi ^= ps.hcHi
		if !ps.hcKeyed {
			s.hcUnkeyed++
		}
	}
	s.hcDirty = s.hcDirty[:0]
}

// procHashContribution hashes one process's component of the configuration
// key, mirroring AppendStateKey's per-process cases tag-for-tag and binding
// the pid so permuting two processes' states changes the XOR aggregate.
// keyed is false in the case AppendStateKey rejects: a live process without
// a StateKeyer.
func procHashContribution(pid int, ps *procState) (lo, hi uint64, keyed bool) {
	h := machine.SeedHash128().Word(uint64(pid))
	switch {
	case ps.crashed:
		h = h.Word('x')
	case ps.decided:
		h = h.Word('d').Word(uint64(int64(ps.decision)))
	case ps.err != nil:
		h = h.Word('e')
	case !ps.hasPoise:
		h = h.Word('?')
	default:
		k, ok := ps.st.(StateKeyer)
		if !ok {
			return 0, 0, false
		}
		key, _ := k.StateKey(nil)
		h = h.Word('l').Word(key)
	}
	return h.Lo, h.Hi, true
}
