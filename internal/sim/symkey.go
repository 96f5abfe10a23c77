package sim

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/machine"
)

// This file is the symmetry-reduced counterpart of StateKey (fork.go): a
// canonical configuration key that is additionally invariant under the two
// symmetries the paper's model guarantees.
//
//   - Location symmetry. The model requires uniform memory locations — every
//     location supports the same instruction set and locations are
//     interchangeable — so a configuration and its image under a location
//     permutation (memory contents permuted, every process-local location
//     reference relabeled the same way) have corresponding futures. The key
//     canonicalizes the memory to the sorted multiset of its non-zero cell
//     contents and hands each process a relabeling that maps physical
//     locations to their rank in that sorted order.
//
//   - Process symmetry. When every live process runs uniform code — its
//     behavior a function of its local state only, never of its process id —
//     a configuration and its image under a permutation of the process
//     vector have corresponding futures, and the consensus safety properties
//     (agreement, validity against the fixed input multiset, solo
//     termination) are permutation-invariant. The key therefore encodes the
//     per-process entries as a sorted multiset rather than a pid-indexed
//     vector. Processes whose local state still depends on their input
//     carry the input inside their local key, so only processes that have
//     become indistinguishable — equal inputs, or inputs that are dead
//     state — actually merge.
//
// Both quotients are opt-in per stepper: a stepper's StateKey(relabel)
// with a non-nil relabel is its symmetric local-state key, and ok=false
// says it has none (see StateKeyer for the contract). A system with any
// live process without one transparently falls back to the exact key, so
// the symmetric key is sound for every protocol by construction.

// symZeroBase is the relabeling offset for references to locations in the
// canonical zero state: such a cell has no rank in the sorted non-zero cell
// order, so it relabels conservatively to its own physical index in a
// disjoint index space. This forgoes merging configurations that differ
// only by which untouched location a process is about to operate on — a
// sound under-approximation of the orbit.
const symZeroBase = 1 << 32

// symKeyTag bytes keep the symmetric and exact key encodings in disjoint
// spaces, so a fallback key can never alias a symmetric one.
const (
	symKeyTagSym   = 's'
	symKeyTagExact = 'e'
)

// symEntry is one process entry of the symmetric key held without its
// bytes: the entry (its tag byte, then at most ten payload bytes) packed
// big-endian into hi and lo, zero-padded, and its length n. Comparing
// (hi, lo, n) orders entries exactly as bytes.Compare orders their byte
// strings — the first differing byte decides, and a proper prefix (whose
// padding is zero) sorts first — so SymHash128 streams them in the byte
// key's order.
type symEntry struct {
	hi, lo uint64
	n      int
}

func (e *symEntry) push(b byte) {
	if e.n < 8 {
		e.hi |= uint64(b) << (56 - 8*e.n)
	} else {
		e.lo |= uint64(b) << (56 - 8*(e.n-8))
	}
	e.n++
}

func cmpSymEntry(a, b symEntry) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	if c := cmp.Compare(a.lo, b.lo); c != 0 {
		return c
	}
	return cmp.Compare(a.n, b.n)
}

// SymScratch carries the reusable working buffers of SymHash128 and
// AppendSymStateKey, so callers keying every configuration of an
// exploration (the seen-state tables) don't pay the cell/entry allocations
// per key. The zero value is ready to use; a SymScratch must not be shared
// between concurrent keyers.
type SymScratch struct {
	cells []machine.CellHash
	// rank maps a location to 1 + its rank in the sorted non-zero cell
	// order, 0 for a zero cell: dense, so SymHash128 relabels by an index,
	// and each hash resets exactly the entries it set.
	rank  []int32
	ents  []symEntry
	exact []byte // the fallback's exact key
	// relabel is SymHash128's rank lookup, built once per scratch so the hot
	// keying path allocates no closure per configuration.
	relabel func(loc int) int
	// The byte form keeps its own map-based relabeling and byte-string
	// entries, so the two forms are independent implementations of one
	// key and check each other (TestSymHash128MatchesKey).
	keyRank    map[int]int
	entries    [][]byte
	keyRelabel func(loc int) int
}

// procSymKey is a live process's symmetric local-state key; ok is false
// when its stepper has none.
func procSymKey(st Stepper, relabel func(loc int) int) (key uint64, ok bool) {
	k, ok := st.(StateKeyer)
	if !ok {
		return 0, false
	}
	return k.StateKey(relabel)
}

// SymHash128 is the fingerprint of the symmetric key, and what the explorer
// claims under symmetry reduction: it streams exactly the bytes
// AppendSymStateKey would append through a machine.ByteHash128, so it equals
// NewByteHash128().Bytes(key).Sum() of that key, without building it. The
// memory streams as the fold of its sorted non-zero cells, whose ranks it
// keeps in a dense table; each process entry is packed into a symEntry and
// the entries are sorted in the byte key's order; channel systems stream
// their consumed drop budget last. A system with a live process without a
// symmetric key takes the fallback, which builds its exact key (into sc)
// and hashes it. ok is false exactly when AppendSymStateKey's is. sc must
// not be nil.
//
// Concurrency: like AppendSymStateKey it only reads the receiver, so it is
// safe concurrently with Forks of the same system but not with
// Step/Crash/Close; each concurrent caller needs its own SymScratch.
func (s *System) SymHash128(sc *SymScratch) (machine.Hash128, bool) {
	if s.closed {
		return machine.Hash128{}, false
	}
	// Memory: the sorted multiset of non-zero cells, ranked for the
	// relabeling. Ties (equal-content cells) are broken by physical index,
	// as in AppendSymStateKey.
	cells := s.mem.AppendCellHashes(sc.cells[:0])
	sc.cells = cells
	if n := len(cells); n > 0 {
		// AppendCellHashes lists cells by ascending location, so the last
		// one sizes the rank table.
		if need := cells[n-1].Loc + 1; len(sc.rank) < need {
			sc.rank = append(sc.rank, make([]int32, need-len(sc.rank))...)
		}
	}
	slices.SortFunc(cells, func(a, b machine.CellHash) int {
		if a.Hash != b.Hash {
			return cmp.Compare(a.Hash, b.Hash)
		}
		return cmp.Compare(a.Loc, b.Loc)
	})
	for r, c := range cells {
		sc.rank[c.Loc] = int32(r) + 1
	}
	if sc.relabel == nil {
		sc.relabel = func(loc int) int {
			if uint(loc) < uint(len(sc.rank)) {
				if r := sc.rank[loc]; r != 0 {
					return int(r - 1)
				}
			}
			return symZeroBase + loc
		}
	}

	// Processes: one entry each, sorted.
	var vb [binary.MaxVarintLen64]byte
	ents := sc.ents[:0]
	keyed := true
procs:
	for _, ps := range s.procs {
		var e symEntry
		switch {
		case ps.crashed:
			e.push('x')
		case ps.decided:
			e.push('d')
			for _, b := range vb[:binary.PutVarint(vb[:], int64(ps.decision))] {
				e.push(b)
			}
		case ps.err != nil:
			e.push('e')
		case !ps.hasPoise:
			e.push('?')
		default:
			k, ok := procSymKey(ps.st, sc.relabel)
			if !ok {
				keyed = false
				break procs
			}
			// 'l' and the key's little-endian bytes.
			r := bits.ReverseBytes64(k)
			e = symEntry{hi: 'l'<<56 | r>>8, lo: r << 56, n: 9}
		}
		ents = append(ents, e)
	}
	sc.ents = ents
	for _, c := range cells {
		sc.rank[c.Loc] = 0
	}
	if !keyed {
		key, ok := s.AppendStateKey(append(sc.exact[:0], symKeyTagExact))
		sc.exact = key[:0]
		return machine.NewByteHash128().Bytes(key).Sum(), ok
	}
	slices.SortFunc(ents, cmpSymEntry)
	h := machine.NewByteHash128().Byte(symKeyTagSym).Uint64(machine.FoldCellHashes(cells))
	for _, e := range ents {
		w := e.hi
		for i := 0; i < e.n; i++ {
			if i == 8 {
				w = e.lo
			}
			h = h.Byte(byte(w >> 56))
			w <<= 8
		}
	}
	if s.hasChans() {
		h = h.Byte('c').Bytes(vb[:binary.PutUvarint(vb[:], uint64(s.dropsUsed))])
	}
	return h.Sum(), true
}

// AppendSymStateKey appends the symmetry-reduced form of StateKey to dst,
// reusing sc's buffers when non-nil: a canonical encoding of the
// configuration's orbit under location permutations and (when every live
// stepper has a symmetric key) permutations of the process vector.
// Configurations with equal keys behave identically under corresponding
// future schedules, so the explorer's seen-state table may merge them; the
// quotient only ever shrinks the table, never the explored semantics. If
// some live stepper has no symmetric key the exact key is appended instead
// (tagged into a disjoint key space); ok is false only when the exact key
// is unavailable too. The explorer claims its fingerprint, SymHash128; the
// byte form serves the tests and perfbench's key probe.
//
// Its concurrency contract matches AppendStateKey's: it only reads the
// receiver — safe concurrently with Forks of the same system, but not with
// Step/Crash/Close (and each concurrent caller needs its own SymScratch).
func (s *System) AppendSymStateKey(dst []byte, sc *SymScratch) (key []byte, ok bool) {
	if s.closed {
		return dst, false
	}
	if sc == nil {
		sc = &SymScratch{}
	}
	start := len(dst)
	dst = append(dst, symKeyTagSym)

	// Memory: canonicalize to the sorted multiset of non-zero cells — the
	// same sorted-cell form Memory.SymFingerprint64 digests, pinned
	// identical by TestSymStateKeyMemoryComponent — and derive the
	// relabeling every process key is computed against. Ties (equal-content
	// cells) are broken by physical index, which never merges
	// configurations that are not equivalent — it only forgoes merges among
	// equal-content cells, where distinguishing them is already content-free.
	cells := s.mem.AppendCellHashes(sc.cells[:0])
	sc.cells = cells[:0]
	slices.SortFunc(cells, func(a, b machine.CellHash) int {
		if a.Hash != b.Hash {
			return cmp.Compare(a.Hash, b.Hash)
		}
		return cmp.Compare(a.Loc, b.Loc)
	})
	dst = binary.LittleEndian.AppendUint64(dst, machine.FoldCellHashes(cells))
	if len(cells) > 0 && sc.keyRank == nil {
		sc.keyRank = make(map[int]int, len(cells))
	}
	clear(sc.keyRank)
	for r, c := range cells {
		sc.keyRank[c.Loc] = r
	}
	if sc.keyRelabel == nil {
		sc.keyRelabel = func(loc int) int {
			if r, hit := sc.keyRank[loc]; hit {
				return r
			}
			return symZeroBase + loc
		}
	}
	relabel := sc.keyRelabel

	// Processes: one self-delimiting entry each — terminal status or the
	// relabeled local-state key — sorted so the key quotients by process
	// permutation.
	for len(sc.entries) < len(s.procs) {
		sc.entries = append(sc.entries, nil)
	}
	entries := sc.entries[:len(s.procs)]
	for i, ps := range s.procs {
		e := entries[i][:0]
		switch {
		case ps.crashed:
			e = append(e, 'x')
		case ps.decided:
			e = append(e, 'd')
			e = binary.AppendVarint(e, int64(ps.decision))
		case ps.err != nil:
			e = append(e, 'e')
		case !ps.hasPoise:
			e = append(e, '?')
		default:
			k, ok := procSymKey(ps.st, relabel)
			if !ok {
				// Transparent fallback: the exact key, in its own tag space.
				return s.AppendStateKey(append(dst[:start], symKeyTagExact))
			}
			e = append(e, 'l')
			e = binary.LittleEndian.AppendUint64(e, k)
		}
		entries[i] = e
	}
	slices.SortFunc(entries, bytes.Compare)
	for _, e := range entries {
		dst = append(dst, e...)
	}
	// Drop-budget fold, mirroring AppendStateKey: present only for channel
	// systems, so shared-memory symmetric keys keep their exact bytes.
	if s.hasChans() {
		dst = append(dst, 'c')
		dst = binary.AppendUvarint(dst, uint64(s.dropsUsed))
	}
	return dst, true
}
