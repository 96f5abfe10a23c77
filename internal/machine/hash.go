package machine

import (
	"math/big"
	"sort"
	"sync/atomic"
)

// Canonical state hashing. The explorer deduplicates configurations by a
// canonical key, whose memory component is a 64-bit fingerprint maintained
// incrementally: every non-trivial instruction updates the memory's rolling
// fingerprint by XORing out the touched location's old hash and XORing in
// its new one, so keeping the fingerprint current costs O(touched location)
// per step instead of O(memory) per query. Each location caches its current
// term (location.hlo/hhi), so an instruction hashes its location once,
// after it applies.
//
// "Canonical" means representation-independent: a word, a *big.Int, and (for
// zero) the lazily-nil initial contents all hash identically when they stand
// for the same integer, matching EqualValues. Locations in the canonical
// zero state (value 0, empty buffer) hash to 0 and therefore contribute
// nothing, so a bounded memory and an unbounded memory holding the same
// values fingerprint equally regardless of how many zero locations have
// materialized.

const (
	hashSeed      = 0x9e3779b97f4a7c15
	hashBigTag    = 0x6a09e667f3bcc908
	hashLocTag    = 0xbb67ae8584caa73b
	hashBlobTag   = 0x3c6ef372fe94f82b
	hashRawIntTag = 0xa54ff53a5f1d36f1
	hashVecTag    = 0x510e527fade682d1
	hashSliceTag  = 0x9b05688c2b3e6c1f
	hashCellTag   = 0x1f83d9abfb41bd6b
	hashOrbitTag  = 0x5be0cd19137e2179
	hashLoc128Tag = 0x2b992ddfa23249d6
	hashChanTag   = 0x7c1592dbd9c2f6a3
)

// Hash128 is a 128-bit rolling fingerprint: two independently seeded
// splitmix64 lanes fed the same word stream (the second lane remixes each
// word against its own tag before absorbing it, so the lanes decorrelate).
// It is the unit of every explorer seen-state table, which stores
// fingerprints of the canonical configuration key instead of the key bytes
// (sim's StateHash128 streams the key's components as words, never building
// the key; SymHash128 streams the symmetric key's bytes through
// ByteHash128): equal streams always produce equal fingerprints, distinct
// streams collide with probability ~2^-64 per lane. Use SeedHash128 to
// start a stream and Word to absorb.
type Hash128 struct{ Lo, Hi uint64 }

const (
	hash128SeedLo  = 0x243f6a8885a308d3 // first words of pi, the customary
	hash128SeedHi  = 0x13198a2e03707344 // nothing-up-my-sleeve constants
	hash128LaneTag = 0x452821e638d01377
)

// SeedHash128 returns the initial state of a 128-bit fingerprint stream.
func SeedHash128() Hash128 {
	return Hash128{Lo: hash128SeedLo, Hi: hash128SeedHi}
}

// Word absorbs one 64-bit word into both lanes and returns the new state.
func (h Hash128) Word(w uint64) Hash128 {
	return Hash128{
		Lo: Mix64(h.Lo ^ w),
		Hi: Mix64(h.Hi ^ Mix64(w^hash128LaneTag)),
	}
}

// ByteHash128 is the byte-stream counterpart of the Hash128 word chain: two
// FNV-1a lanes with distinct offsets, each finalized through the splitmix
// mixer by Sum. It fingerprints a key given as bytes without the bytes
// having to sit in one buffer: sim's SymHash128 streams the symmetric key
// through it part by part, and a stream absorbs the same bytes to the same
// fingerprint however they are split. Use NewByteHash128 to start one.
type ByteHash128 struct{ lo, hi uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewByteHash128 returns the initial state of a byte-stream fingerprint.
func NewByteHash128() ByteHash128 {
	return ByteHash128{lo: fnvOffset64, hi: fnvOffset64 ^ hash128LaneTag}
}

// Byte absorbs one byte.
func (h ByteHash128) Byte(b byte) ByteHash128 {
	return ByteHash128{
		lo: (h.lo ^ uint64(b)) * fnvPrime64,
		hi: (h.hi ^ uint64(b^0xa5)) * fnvPrime64,
	}
}

// Bytes absorbs p.
func (h ByteHash128) Bytes(p []byte) ByteHash128 {
	for _, b := range p {
		h = h.Byte(b)
	}
	return h
}

// Uint64 absorbs the eight little-endian bytes of w.
func (h ByteHash128) Uint64(w uint64) ByteHash128 {
	for i := 0; i < 8; i++ {
		h = h.Byte(byte(w >> (8 * i)))
	}
	return h
}

// Sum finalizes the stream.
func (h ByteHash128) Sum() Hash128 {
	return Hash128{Lo: Mix64(h.lo), Hi: Mix64(h.hi ^ hash128SeedHi)}
}

// Mix64 is the splitmix64 finalizer: a cheap bijective mixer used to chain
// canonical state into rolling hashes. Exported for the sim and consensus
// layers, which compose process-local state keys out of value hashes.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashInt64(x int64) uint64 {
	return Mix64(uint64(x) ^ hashSeed)
}

func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return Mix64(h ^ hashBlobTag)
}

// Hashable lets a structured payload provide its canonical 64-bit hash
// directly. Every payload a Table 1 protocol stores or receives implements
// it — the swap cells, the single-writer register cells, the QSC messages,
// and the history objects' records and (slot, value) entries — because the
// reflective fallback, hashing the payload's formatted form, costs more
// than the instruction it instruments (for a history record it formats the
// whole carried history). Implementations must agree with EqualValues:
// payloads that compare equal must hash equal. A composite payload hashes
// its components with HashValue, so a component type without a Hashable of
// its own falls back on its own, not for its container.
type Hashable interface {
	Hash64() uint64
}

// reflectiveHashes counts HashValue calls that fell back to hashing a
// payload's formatted form. Only tests read it, to keep the Table 1 rows
// off that path.
var reflectiveHashes atomic.Uint64

// HashValue returns the canonical 64-bit hash of a Value: numeric values
// hash by integer value regardless of representation (nil ≡ word(0) ≡ a
// zero *big.Int), Hashable payloads by their own canonical hash, and other
// structured payloads by their canonical string form — the same
// equivalence EqualValues decides.
func HashValue(v Value) uint64 {
	switch t := v.(type) {
	case nil:
		return hashInt64(0)
	case word:
		return hashInt64(int64(t))
	case *big.Int:
		if t == nil {
			return hashInt64(0)
		}
		if t.IsInt64() {
			return hashInt64(t.Int64())
		}
		h := uint64(hashBigTag)
		if t.Sign() < 0 {
			h = Mix64(h ^ 1)
		}
		for _, w := range t.Bits() {
			h = Mix64(h ^ uint64(w))
		}
		return h
	case Hashable:
		return t.Hash64()
	case int:
		// Raw-int payloads (register cell contents) are distinct from the
		// numeric Value representations under EqualValues, so they get
		// their own tagged hash.
		return Mix64(hashInt64(int64(t)) ^ hashRawIntTag)
	case string:
		return hashString(t)
	case []int64:
		// Lap vectors and count slices, stored by the register protocols.
		h := Mix64(uint64(len(t)) ^ hashVecTag)
		for _, x := range t {
			h = Mix64(h ^ uint64(x))
		}
		return h
	case []Value:
		// Buffer-read results and heterogeneous payload vectors.
		h := Mix64(uint64(len(t)) ^ hashSliceTag)
		for _, e := range t {
			h = Mix64(h ^ HashValue(e))
		}
		return h
	default:
		reflectiveHashes.Add(1)
		return hashString(fingerprintValue(v))
	}
}

// zeroValue reports whether v is the canonical zero contents of a plain
// location: nil (never written) or any numeric representation of 0.
func zeroValue(v Value) bool {
	switch t := v.(type) {
	case nil:
		return true
	case word:
		return t == 0
	case *big.Int:
		return t == nil || t.Sign() == 0
	default:
		return false
	}
}

// canonicalValueString renders a Value for the string fingerprint under the
// same equivalence HashValue uses: all representations of an integer render
// identically (nil renders as "0").
func canonicalValueString(v Value) string {
	if zeroValue(v) {
		return "0"
	}
	return fingerprintValue(normValue(v))
}

// cellHash is the canonical, location-index-free hash of one location's
// observable contents: its plain value and its buffer, sequenced so that
// order and length matter. A location in the zero state hashes to 0, so the
// hash doubles as a zero-state test; a non-zero cell whose hash lands on 0
// (one in 2^64) is nudged to 1 to keep the two cases apart. The buffer-write
// total (`writes`) is instrumentation, not observable state, and is
// excluded. Being index-free makes equal-content locations hash equally,
// which is what the symmetry machinery sorts on.
func cellHash(l *location) uint64 {
	if len(l.buf) == 0 && zeroValue(l.val) && len(l.pending) == 0 && len(l.inbox) == 0 {
		return 0
	}
	h := Mix64(hashCellTag ^ HashValue(l.val))
	for _, v := range l.buf {
		h = Mix64(h ^ HashValue(v))
	}
	if len(l.pending) > 0 || len(l.inbox) > 0 {
		// Channel queues: pending and inbox are hashed as length-delimited
		// sequences under the channel tag. Bag channels canonicalize pending
		// as a sorted multiset of message hashes, so physical send order
		// never splits one bag state into several keys; FIFO pending and the
		// inbox are order-sensitive by definition. Kind and capacity are
		// structural and excluded, like buffer capacities.
		h = Mix64(h ^ hashChanTag ^ uint64(len(l.pending)))
		if l.chanKind == ChanBag {
			var stack [8]uint64
			hs := stack[:0]
			for _, v := range l.pending {
				hs = append(hs, HashValue(v))
			}
			// Insertion sort: pending is capacity-bounded and small.
			for i := 1; i < len(hs); i++ {
				for j := i; j > 0 && hs[j] < hs[j-1]; j-- {
					hs[j], hs[j-1] = hs[j-1], hs[j]
				}
			}
			for _, x := range hs {
				h = Mix64(h ^ x)
			}
		} else {
			for _, v := range l.pending {
				h = Mix64(h ^ HashValue(v))
			}
		}
		h = Mix64(h ^ hashChanTag ^ uint64(len(l.inbox)))
		for _, v := range l.inbox {
			h = Mix64(h ^ HashValue(v))
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// canonicalPending returns the pending queue in its canonical order: send
// order for FIFO channels, sorted by canonical message hash for bags (the
// order cellHash folds them in). Used by the string Fingerprint so the two
// canonical forms agree.
func canonicalPending(l *location) []Value {
	if l.chanKind != ChanBag || len(l.pending) < 2 {
		return l.pending
	}
	out := append([]Value(nil), l.pending...)
	sort.Slice(out, func(i, j int) bool { return HashValue(out[i]) < HashValue(out[j]) })
	return out
}

// locHash is cellHash bound to the location's index — the per-location term
// of the exact rolling fingerprint, where position matters. Zero-state
// locations hash to 0 and contribute nothing.
func locHash(i int, l *location) uint64 {
	ch := cellHash(l)
	if ch == 0 {
		return 0
	}
	return Mix64(ch ^ Mix64(uint64(i)^hashLocTag))
}

// locHash128 is locHash widened to two lanes: the low lane is the exact
// 64-bit per-location term, the high lane remixes it against its own tag so
// the lanes decorrelate. Zero-state locations contribute (0, 0) in both
// lanes, preserving the bounded/unbounded equivalence. It is the
// per-location term of the rolling 128-bit fingerprint, cached in the
// location by Memory.rehash.
func locHash128(i int, l *location) (lo, hi uint64) {
	lo = locHash(i, l)
	if lo == 0 {
		return 0, 0
	}
	return lo, Mix64(lo ^ hashLoc128Tag)
}

// CellHash pairs a location index with the index-free canonical hash of its
// contents. It is the unit the symmetry-reduced state key sorts to
// canonicalize the memory up to location permutation.
type CellHash struct {
	Loc  int
	Hash uint64
}

// AppendCellHashes appends one entry per location outside the canonical zero
// state — its index and index-free content hash — and returns the extended
// slice. Zero locations are omitted, so bounded and unbounded memories
// holding the same values report the same cells.
func (m *Memory) AppendCellHashes(dst []CellHash) []CellHash {
	for i := range m.locs {
		if h := cellHash(&m.locs[i]); h != 0 {
			dst = append(dst, CellHash{Loc: i, Hash: h})
		}
	}
	return dst
}

// FoldCellHashes folds a sorted sequence of cell hashes into one 64-bit
// digest. Callers must sort first: the fold is position-sensitive over the
// sorted sequence, which preserves multiplicity (two equal cells do not
// cancel the way an XOR would) while staying invariant under location
// permutation.
func FoldCellHashes(sorted []CellHash) uint64 {
	h := uint64(hashOrbitTag)
	for _, c := range sorted {
		h = Mix64(h ^ c.Hash)
	}
	return h
}

// SymFingerprint64 returns the orbit-canonical fingerprint of the memory
// contents: the canonical form is the multiset of non-zero cell contents —
// the minimum of the exact representation over all location permutations,
// realized cheaply by sorting the index-free cell hashes. Two memories
// related by a permutation of their locations always fingerprint equally;
// distinct orbits collide only with 64-bit hash probability. It is the
// memory component of the explorer's symmetry-reduced state key.
func (m *Memory) SymFingerprint64() uint64 {
	cells := m.AppendCellHashes(make([]CellHash, 0, 16))
	sort.Slice(cells, func(i, j int) bool { return cells[i].Hash < cells[j].Hash })
	return FoldCellHashes(cells)
}
