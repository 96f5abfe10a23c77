package explore

// Compacted seen-state storage: the SPIN-style alternatives to the exact
// tables, selected by Options.Table. Instead of full canonical key bytes the
// compacted modes store a 64- or 128-bit fingerprint of the key (hash
// compaction, 16-24 bytes per state) or k bits of a Bloom filter (bitstate /
// supertrace, well under a byte per state), trading a quantified
// false-merge probability for one to two orders of magnitude more states per
// gigabyte.
//
// Soundness contract (also in DESIGN.md): a false merge — two distinct
// canonical states sharing a fingerprint — can only ever *prune* a subtree,
// never invent a state, so compacted runs under-approximate: violations
// found are real, but absence of violations is no longer a certificate of
// the full bounded space. A run that pruned nothing (Report.Deduped == 0)
// provably explored everything regardless of table mode; otherwise the
// compacted modes set Report.UnderApprox and quantify the risk in
// Report.FalseMergeProb. The exact mode never under-approximates.
//
// The hash-compaction table doubles as the lock-free alternative to the
// mutex-sharded exact table: slots are write-once —
// published by a single CompareAndSwap from zero to the probe word — so
// claims need no locks, and claim uniqueness follows from CAS monotonicity:
// for two workers inserting the same fingerprint along the same probe
// sequence, whichever CAS succeeds forces the other walker to observe the
// published word and take the hit path.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Table selects the seen-state storage backing Dedup and the
// DistinctStates accounting.
type Table int

const (
	// TableExact stores full canonical key bytes in a (sharded) map. Never
	// under-approximates the *search*: no configuration is ever pruned on a
	// hash. (With Dedup off nothing is pruned at all and only
	// Report.DistinctStates is tracked, as 64-bit key hashes — that count,
	// and only that count, is fingerprint-approximate; see
	// Report.DistinctStates.) The default.
	TableExact Table = iota
	// TableCompact is SPIN-style hash compaction: a lock-free
	// open-addressing table over 64-bit fingerprints of the canonical key,
	// 16 bytes per state (probe word + depth word). False merges occur
	// with birthday probability ~states^2/2^65 and are reported via
	// Report.UnderApprox / FalseMergeProb.
	TableCompact
	// TableCompact128 widens TableCompact with a second, independently
	// seeded 64-bit check word per entry (24 bytes per state), pushing the
	// false-merge bound to ~states^2/2^129 — negligible at any reachable
	// state count.
	TableCompact128
	// TableBitstate is SPIN's supertrace mode: a k-hash Bloom filter over
	// (state, depth) claims. Minimum memory, no distinct-state counting
	// (DistinctStates reports 0), and a false-merge probability that grows
	// with occupancy — the mode of last resort for spaces that overflow
	// even the compacted table.
	TableBitstate
)

// String returns the flag spelling parsed by ParseTable.
func (t Table) String() string {
	switch t {
	case TableExact:
		return "exact"
	case TableCompact:
		return "compact"
	case TableCompact128:
		return "compact128"
	case TableBitstate:
		return "bitstate"
	default:
		return fmt.Sprintf("Table(%d)", int(t))
	}
}

// ParseTable parses the flag spelling of a table mode.
func ParseTable(s string) (Table, error) {
	switch s {
	case "", "exact":
		return TableExact, nil
	case "compact":
		return TableCompact, nil
	case "compact128":
		return TableCompact128, nil
	case "bitstate":
		return TableBitstate, nil
	default:
		return TableExact, fmt.Errorf("explore: unknown table mode %q (want exact, compact, compact128, or bitstate)", s)
	}
}

// ErrTableFull reports that a fixed-budget compacted table ran out of slots.
// Raising Options.TableBytes (or switching to TableBitstate) lifts the cap.
var ErrTableFull = errors.New("explore: compacted seen-state table is full")

// ctable is the compacted seen-state store. claim records a visit of the
// fingerprinted state at the given depth and reports whether the caller
// owns the expansion of that (state, depth) pair (claimed) and whether the
// fingerprint itself was first recorded by this call (newState, the
// DistinctStates unit). All methods except the read-only summaries are safe
// for concurrent use.
type ctable interface {
	claim(fp machine.Hash128, depth int) (claimed, newState bool, err error)
	// distinct counts distinct fingerprints recorded (0 when the mode
	// cannot count, i.e. bitstate). Callers must have joined all writers.
	distinct() int64
	// memBytes is the table's backing-store size.
	memBytes() int64
	// occupancy is the fraction of slots (compact) or bits (bitstate) set.
	occupancy() float64
	// falseMergeProb estimates the probability that at least one of the
	// run's merges was false — two distinct states sharing a fingerprint —
	// given that `deduped` configurations were merged.
	falseMergeProb(deduped int64) float64
}

// newCTable builds the store for opts.Table, or nil for TableExact. shared
// marks a table several workers claim through at once: a compact table
// then allocates its whole budget up front, because growing would move
// slots under concurrent readers.
func newCTable(opts Options, shared bool) ctable {
	switch opts.Table {
	case TableCompact, TableCompact128:
		return newCompactTable(opts.Table == TableCompact128, !shared, opts.TableBytes, opts.testPWMask)
	case TableBitstate:
		return newBitTable(opts.TableBytes)
	default:
		return nil
	}
}

const (
	// compactDefaultBytes sizes a compact table when Options.TableBytes is
	// unset: 64 MiB holds 4M states in 64-bit mode — roughly 50x what the
	// same budget holds as full keys.
	compactDefaultBytes = 64 << 20
	// bitstateDefaultBytes sizes the Bloom filter when unset: 32 MiB is
	// 2^28 bits, good for ~20M states below 1% per-query false-merge rate.
	bitstateDefaultBytes = 32 << 20
	// compactMinEntries is the smallest (and initial growable) table size.
	compactMinEntries = 1 << 10
	// bitstateK is the number of bits set per claim. All k bits land in one
	// 64-bit word (a blocked Bloom filter), so a claim is a single atomic
	// Or — which is also what makes concurrent claims exact: the Or returns
	// the prior word, so exactly one claimant observes the last missing bit.
	bitstateK = 3
	// depthEpochTag decorrelates the depth-epoch fold (claims at depth >=
	// 64) from the plain fingerprint space.
	depthEpochTag = 0xc2b2ae3d27d4eb4f
)

// compactTable is the hash-compaction store: open addressing with linear
// probing over write-once slots of `stride` words — probe word, optional
// 128-bit check word, and a depth word. The probe word is the claim point:
// zero means empty, and the only write it ever sees is one successful
// CAS(0 -> fingerprint), which makes every slot's contents monotone and the
// whole structure lock-free.
//
// Claim rule: the depth word is a bitmap of claimed depths (depths >= 64
// fold their epoch into the probe word, so an entry is a (state,
// depth-epoch) pair) — the exact (state, depth) claim rule of the exact
// table, so absent collisions a compact run reproduces the exact Report.
//
// Sizing: shared tables, and any table given an explicit TableBytes
// budget, allocate their final size up front (growing would move slots
// under concurrent readers, and a rehash transiently holds ~1.5x the cap).
// Only default-budget one-worker tables grow, by single-threaded rehash at
// 3/4 load, until the default budget is reached. Either way inserts refuse
// at 15/16 load with ErrTableFull, which also guarantees probe termination.
type compactTable struct {
	wide       bool // 128-bit mode: check word present
	growable   bool
	stride     uint64
	pwMask     uint64 // test hook: truncates probe words to plant collisions
	maxEntries uint64
	mask       uint64 // current entries-1; entries is a power of two
	slots      []uint64
	used       atomic.Int64 // slots occupied (incl. depth-epoch entries)
	states     atomic.Int64 // distinct fingerprints (base entries only)
}

func newCompactTable(wide, growable bool, budget int64, pwMask uint64) *compactTable {
	stride := uint64(2)
	if wide {
		stride = 3
	}
	if budget <= 0 {
		budget = compactDefaultBytes
	} else {
		// An explicit budget is a hard cap on the table's footprint at every
		// instant, so the table is allocated at its final size up front and
		// never rehashes: a growth rehash transiently holds the old and
		// doubled slot arrays together — ~1.5x the final size — busting caps
		// the final table fits comfortably. Growth only serves the
		// default-budget one-worker case, where starting at 1024 entries
		// keeps small explorations small.
		growable = false
	}
	// Doubling while the *doubled* table still fits leaves the largest
	// power-of-two table with memBytes <= budget. The 1<<55 stop keeps the
	// product below int64 overflow for absurd budgets; a table that size
	// could not be allocated anyway.
	maxEntries := uint64(compactMinEntries)
	for maxEntries < 1<<55 && int64(maxEntries*2)*int64(stride)*8 <= budget {
		maxEntries *= 2
	}
	entries := maxEntries
	if growable {
		entries = compactMinEntries
	}
	return &compactTable{
		wide:       wide,
		growable:   growable,
		stride:     stride,
		pwMask:     pwMask,
		maxEntries: maxEntries,
		mask:       entries - 1,
		slots:      make([]uint64, entries*stride),
	}
}

// words derives the slot contents from the fingerprint: the probe word
// (lane Lo) and the 128-bit check word (lane Hi), with epoch (nonzero only
// for claims at depth >= 64) folded into both. Zero is reserved as the
// empty/unpublished marker in both words, so real zeros are nudged to 1 — a
// 2^-64 perturbation already inside the fingerprint collision budget.
func (t *compactTable) words(fp machine.Hash128, epoch uint64) (pw, check uint64) {
	pw, check = fp.Lo, fp.Hi
	if epoch != 0 {
		pw = machine.Mix64(pw ^ machine.Mix64(epoch^depthEpochTag))
		check = machine.Mix64(check ^ epoch)
	}
	if t.pwMask != 0 {
		pw &= t.pwMask
	}
	if pw == 0 {
		pw = 1
	}
	if check == 0 {
		check = 1
	}
	return pw, check
}

func (t *compactTable) claim(fp machine.Hash128, depth int) (claimed, newState bool, err error) {
	var epoch uint64
	if depth >= 64 {
		// Claims beyond one 64-bit depth word get their own (state,
		// depth-epoch) entry — but that entry must not stand in for
		// the state in the distinct count, or every extra epoch would count
		// the state again. The state's base entry carries the count; a
		// race-hammer invariant (one newState per fingerprint) pins this.
		epoch = uint64(depth) >> 6
		pw, check := t.words(fp, 0)
		_, newState, err = t.slotFor(pw, check)
		if err != nil {
			return false, false, err
		}
	}
	pw, check := t.words(fp, epoch)
	base, inserted, err := t.slotFor(pw, check)
	if err != nil {
		return false, false, err
	}
	if epoch == 0 {
		newState = inserted
	}
	if newState {
		t.states.Add(1)
	}
	// The atomic Or alone decides the claim, even for the slot's CAS winner:
	// a same-depth visitor may reach the bitmap before the winner does, and
	// the Or hands the claim to exactly one of them. Bits are never cleared,
	// so a plain load that sees the bit already set proves a lost claim
	// without the read-modify-write.
	bit := uint64(1) << (uint(depth) & 63)
	depths := &t.slots[base+t.stride-1]
	if atomic.LoadUint64(depths)&bit != 0 {
		return false, newState, nil
	}
	return atomic.OrUint64(depths, bit)&bit == 0, newState, nil
}

// slotFor finds or claims the slot holding (pw, check), returning its word
// base and whether this call inserted it. Linear probing never leaves gaps
// (slots are never deleted), so an empty slot proves absence.
func (t *compactTable) slotFor(pw, check uint64) (base uint64, inserted bool, err error) {
	for {
		entries := t.mask + 1
		grew := false
		for i := uint64(0); i < entries; i++ {
			base = ((pw + i) & t.mask) * t.stride
			w := atomic.LoadUint64(&t.slots[base])
			if w == 0 {
				if t.growable && t.needsGrow() {
					t.grow()
					grew = true
					break // positions moved: restart the probe
				}
				if t.full() {
					return 0, false, fmt.Errorf("%w (%d entries, %d MiB; raise TableBytes)",
						ErrTableFull, entries, t.memBytes()>>20)
				}
				if atomic.CompareAndSwapUint64(&t.slots[base], 0, pw) {
					t.used.Add(1)
					if t.wide {
						atomic.StoreUint64(&t.slots[base+1], check)
					}
					return base, true, nil
				}
				// Lost the race for this slot; reload and fall through —
				// the winner may have published our own fingerprint.
				w = atomic.LoadUint64(&t.slots[base])
			}
			if w == pw {
				if t.wide && !t.checkMatches(base, check) {
					continue // same probe word, different state: keep probing
				}
				return base, false, nil
			}
		}
		if !grew {
			// Unreachable below the load caps; closes the loop for safety.
			return 0, false, ErrTableFull
		}
	}
}

// checkMatches compares the 128-bit check word, spinning out the
// instruction-wide window between a winner's CAS and its check publication.
func (t *compactTable) checkMatches(base uint64, check uint64) bool {
	c := atomic.LoadUint64(&t.slots[base+1])
	for c == 0 {
		runtime.Gosched()
		c = atomic.LoadUint64(&t.slots[base+1])
	}
	return c == check
}

func (t *compactTable) needsGrow() bool {
	entries := t.mask + 1
	return entries < t.maxEntries && uint64(t.used.Load())*4 >= entries*3
}

func (t *compactTable) full() bool {
	return uint64(t.used.Load())*16 >= (t.mask+1)*15
}

// grow doubles the table and reinserts every slot. Growable tables have a
// single claimant, so plain loads and stores suffice.
func (t *compactTable) grow() {
	old := t.slots
	entries := (t.mask + 1) * 2
	t.slots = make([]uint64, entries*t.stride)
	t.mask = entries - 1
	for base := uint64(0); base < uint64(len(old)); base += t.stride {
		pw := old[base]
		if pw == 0 {
			continue
		}
		for i := uint64(0); ; i++ {
			nb := ((pw + i) & t.mask) * t.stride
			if t.slots[nb] == 0 {
				copy(t.slots[nb:nb+t.stride], old[base:base+t.stride])
				break
			}
		}
	}
}

func (t *compactTable) distinct() int64 { return t.states.Load() }
func (t *compactTable) memBytes() int64 { return int64(len(t.slots)) * 8 }

func (t *compactTable) occupancy() float64 {
	return float64(t.used.Load()) / float64(t.mask+1)
}

// falseMergeProb is the birthday bound over the distinct fingerprints
// stored: with D states hashed into b effective bits, some pair of distinct
// states collides with probability ~1 - exp(-D(D-1)/2^(b+1)); only then can
// any of the run's merges have been false.
func (t *compactTable) falseMergeProb(deduped int64) float64 {
	if deduped == 0 {
		return 0
	}
	b := 64.0
	if t.pwMask != 0 {
		b = float64(bits.OnesCount64(t.pwMask))
	}
	if t.wide {
		b += 64
	}
	d := float64(t.used.Load())
	return -math.Expm1(-d * (d - 1) / math.Pow(2, b+1))
}

// bitTable is the bitstate (supertrace) store: a blocked Bloom filter whose
// claims are (state, depth) pairs — the depth is folded into the
// fingerprint, so the rule is the exact-pair claim of the other tables.
// Each claim derives one word index and k bit positions from the folded
// fingerprint and issues a single atomic Or; the Or's return value hands
// the pair's expansion to exactly one concurrent claimant. Distinct states are uncountable here, so
// distinct reports 0 and Report.DistinctStates follows.
type bitTable struct {
	words []uint64
}

func newBitTable(budget int64) *bitTable {
	if budget <= 0 {
		budget = bitstateDefaultBytes
	}
	n := budget / 8
	if n < 16 {
		n = 16
	}
	return &bitTable{words: make([]uint64, n)}
}

func (t *bitTable) claim(fp machine.Hash128, depth int) (claimed, newState bool, err error) {
	h := fp.Word(uint64(depth))
	// Lane Lo picks the word by multiply-shift range reduction; lane Hi
	// feeds k 6-bit positions within it.
	wi, _ := bits.Mul64(h.Lo, uint64(len(t.words)))
	mask, hi := uint64(0), h.Hi
	for i := 0; i < bitstateK; i++ {
		mask |= 1 << (hi & 63)
		hi >>= 6
	}
	if atomic.LoadUint64(&t.words[wi])&mask == mask {
		return false, false, nil // bits are never cleared: a lost claim
	}
	old := atomic.OrUint64(&t.words[wi], mask)
	return old&mask != mask, false, nil
}

func (t *bitTable) distinct() int64 { return 0 }
func (t *bitTable) memBytes() int64 { return int64(len(t.words)) * 8 }

func (t *bitTable) occupancy() float64 {
	var ones int64
	for _, w := range t.words {
		ones += int64(bits.OnesCount64(w))
	}
	return float64(ones) / float64(len(t.words)*64)
}

// falseMergeProb: a query false-merges when all k of its bits were already
// set by other states, which at bit density rho happens with probability
// ~rho^k per merged visit; over `deduped` merges the chance that at least
// one was false is 1 - (1 - rho^k)^deduped.
func (t *bitTable) falseMergeProb(deduped int64) float64 {
	if deduped == 0 {
		return 0
	}
	rho := t.occupancy()
	if rho >= 1 {
		return 1
	}
	perQuery := math.Pow(rho, bitstateK)
	return -math.Expm1(float64(deduped) * math.Log1p(-perQuery))
}

// --- exact table and the claim point -----------------------------------------

// seenShardCount is the number of independently locked shards of an exact
// table shared by several workers. 64 shards keep the expected number of
// workers contending on one mutex below W^2/64 pairs even at W=16 workers.
// A one-worker walk uses a single shard and takes no locks. Must be a power
// of two.
const seenShardCount = 64

// Per-entry overhead estimates for the exact table's telemetry: a
// string-keyed map entry with its header, hash, and value word; a bare
// uint64 set entry.
const (
	exactEntryOverhead = 48
	hashEntryOverhead  = 16
)

// seenTable is the exact seen-state table (TableExact). Keys are canonical
// configuration encodings (sim.System.AppendStateKey). In dedup mode each
// key maps to one word, the bitmap of depths below 64 at which the state
// was claimed — the same (state, depth) rule as the compact table's depth
// word; claims at depth >= 64 get a (key, depth-epoch) entry of their own.
// In count-only mode (dedup off) the shards hold 64-bit key hashes and
// every touch claims.
type seenTable struct {
	dedup bool
	// mask truncates count-only key hashes (Options.testPWMask) so tests can
	// plant the 64-bit DistinctStates collision deterministically; zero
	// outside tests. Dedup mode stores full keys and ignores it.
	mask   uint64
	shards []seenShard
}

type seenShard struct {
	mu     sync.Mutex
	m      map[string]uint64    // dedup mode: key -> claimed depths 0..63
	deep   map[deepClaim]uint64 // dedup mode: claimed depths >= 64
	hashes map[uint64]struct{}  // count-only mode
	bytes  int64                // estimated bytes held (Report.Mem telemetry)
	_      [64]byte             // shards sit a cache line apart
}

// deepClaim keys the claimed-depth bitmap of one 64-depth epoch (>= 1).
type deepClaim struct {
	key   string
	epoch int
}

func newSeenTable(dedup bool, mask uint64, shards int) *seenTable {
	t := &seenTable{dedup: dedup, mask: mask, shards: make([]seenShard, shards)}
	for i := range t.shards {
		if dedup {
			t.shards[i].m = make(map[string]uint64)
		} else {
			t.shards[i].hashes = make(map[uint64]struct{})
		}
	}
	return t
}

// hashKey hashes a full state key (FNV-1a 64; the key already starts with
// the well-mixed memory fingerprint, but hashing all bytes keeps the
// distribution flat even for states differing only in process-local keys).
// It backs the count-only set and picks the shard of a shared table.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// touch records the (key, depth) visit and reports whether the caller owns
// the expansion of this pair (always true in count-only mode). The lookup
// is allocation-free unless it records a new key or depth.
func (t *seenTable) touch(key []byte, depth int) bool {
	var h uint64
	if !t.dedup || len(t.shards) > 1 {
		h = hashKey(key)
		if t.mask != 0 {
			h &= t.mask // test hook: plant count-only hash collisions
		}
	}
	sh := &t.shards[h&uint64(len(t.shards)-1)]
	if len(t.shards) > 1 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if !t.dedup {
		if _, hit := sh.hashes[h]; !hit {
			sh.hashes[h] = struct{}{}
			sh.bytes += hashEntryOverhead
		}
		return true
	}
	depths, hit := sh.m[string(key)]
	if !hit {
		sh.bytes += int64(len(key)) + exactEntryOverhead
	}
	bit := uint64(1) << (uint(depth) & 63)
	if depth < 64 {
		if depths&bit != 0 {
			return false
		}
		sh.m[string(key)] = depths | bit
		return true
	}
	if !hit {
		sh.m[string(key)] = 0 // the state counts once, from any depth
	}
	if sh.deep == nil {
		sh.deep = make(map[deepClaim]uint64)
	}
	dk := deepClaim{string(key), depth >> 6}
	deep, deepHit := sh.deep[dk]
	if deep&bit != 0 {
		return false
	}
	if !deepHit {
		sh.bytes += int64(len(key)) + exactEntryOverhead
	}
	sh.deep[dk] = deep | bit
	return true
}

// memBytes sums the shards' byte estimates; distinct counts distinct keys.
// Callers must have joined all writers first.
func (t *seenTable) memBytes() int64 {
	var n int64
	for i := range t.shards {
		n += t.shards[i].bytes
	}
	return n
}

func (t *seenTable) distinct() int64 {
	var n int64
	for i := range t.shards {
		n += int64(len(t.shards[i].m) + len(t.shards[i].hashes))
	}
	return n
}

// claimer is the claim point of an exploration: it keys a configuration
// (exactly, or up to symmetry) and claims its (state, depth) pair in the
// table Options.Table selects. With Dedup off the table only backs the
// DistinctStates count and every claim succeeds.
type claimer struct {
	exact     *seenTable // TableExact
	ctab      ctable     // the compacted modes
	countOnly bool
	symmetry  bool
	// unkeyable records that some configuration exposed no canonical state
	// key; DistinctStates then reports 0.
	unkeyable atomic.Bool
}

// keyScratch is one claimant's reusable key buffers.
type keyScratch struct {
	buf []byte
	sym sim.SymScratch
}

func newClaimer(opts Options, shared bool) *claimer {
	c := &claimer{countOnly: !opts.Dedup, symmetry: opts.Symmetry}
	if c.ctab = newCTable(opts, shared); c.ctab == nil {
		shards := 1
		if shared {
			shards = seenShardCount
		}
		c.exact = newSeenTable(opts.Dedup, opts.testPWMask, shards)
	}
	return c
}

// claim reports whether the caller owns the expansion of sys at depth. A
// compacted table fingerprints the configuration without materializing its
// key (sim.System.StateHash128), except under Symmetry, whose
// sorted-multiset canonicalization needs the bytes anyway and hashes them.
// The error is non-nil only for a full compacted table (ErrTableFull).
func (c *claimer) claim(sys *sim.System, depth int, ks *keyScratch) (bool, error) {
	var key []byte
	var fp machine.Hash128
	ok := false
	switch {
	case c.symmetry:
		key, ok = sys.AppendSymStateKey(ks.buf[:0], &ks.sym)
		ks.buf = key[:0]
	case c.exact != nil:
		key, ok = sys.AppendStateKey(ks.buf[:0])
		ks.buf = key[:0]
	default:
		fp, ok = sys.StateHash128()
	}
	if !ok {
		c.unkeyable.Store(true)
		return true, nil
	}
	if c.exact != nil {
		return c.exact.touch(key, depth), nil
	}
	if c.symmetry {
		fp = machine.HashBytes128(key)
	}
	claimed, _, err := c.ctab.claim(fp, depth)
	return claimed || c.countOnly, err
}

// summarize fills the table-derived Report fields once every claimant has
// finished.
func (c *claimer) summarize(rep *Report) {
	if c.ctab == nil {
		rep.DistinctStates = c.exact.distinct()
		rep.Mem.TableBytes = c.exact.memBytes()
	} else {
		rep.DistinctStates = c.ctab.distinct()
		rep.Mem.TableBytes = c.ctab.memBytes()
		rep.Mem.TableOccupancy = c.ctab.occupancy()
		if rep.Deduped > 0 {
			rep.UnderApprox = true
			rep.FalseMergeProb = c.ctab.falseMergeProb(rep.Deduped)
		}
	}
	if c.unkeyable.Load() {
		rep.DistinctStates = 0
	}
}
