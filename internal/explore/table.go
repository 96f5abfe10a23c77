package explore

// Seen-state storage, selected by Options.Table. Every table keys a
// configuration by one 128-bit fingerprint (sim.System.StateHash128, or a
// hash of the symmetric key) and claims exact (state, depth) pairs. The
// exact table keeps every fingerprint in an unbounded map; the SPIN-style
// compacted modes store a 64- or 128-bit probe of it in a fixed budget
// (hash compaction, 16-24 bytes per state) or k bits of a Bloom filter
// (bitstate / supertrace, well under a byte per state), trading a
// quantified false-merge probability for one to two orders of magnitude
// more states per gigabyte.
//
// Soundness contract (also in DESIGN.md): a false merge — two distinct
// canonical states sharing a fingerprint — can only ever *prune* a subtree,
// never invent a state, so compacted runs under-approximate: violations
// found are real, but absence of violations is no longer a certificate of
// the full bounded space. A run that pruned nothing (Report.Deduped == 0)
// provably explored everything regardless of table mode; otherwise the
// compacted modes set Report.UnderApprox and quantify the risk in
// Report.FalseMergeProb. The exact mode never sets it. Every fingerprint,
// the exact table's included, is folded from 64-bit component hashes (the
// memory's per-location cell hashes and each process's StateKey), so no
// table tells apart two configurations whose components collide at 64 bits;
// FalseMergeProb covers only the fold above that floor.
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
	// TableExact stores each configuration's 128-bit fingerprint in an
	// unbounded (sharded) map. It never refuses a claim and never sets
	// Report.UnderApprox. Like every mode it rests on the 64-bit component
	// hashes beneath the fingerprint, which no table reports; the fold
	// above them adds ~2^-128 per pair of states. The default.
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
	// state count. That bound covers the 128-bit fold only, not the 64-bit
	// component hashes beneath it (see the contract above).
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

// ctable is a seen-state store. claim records a visit of the
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
	// memBytes is the table's backing-store size (an estimate for exact).
	memBytes() int64
	// occupancy is the fraction of slots (compact) or bits (bitstate) set;
	// 0 for the unbounded exact table.
	occupancy() float64
	// falseMergeProb estimates the probability that at least one of the
	// run's merges was false — two distinct states sharing a fingerprint —
	// given that `deduped` configurations were merged.
	falseMergeProb(deduped int64) float64
}

// newCTable builds the store for opts.Table. shared marks a table several
// workers claim through at once: an exact table then locks per shard, and a
// compact table allocates its whole budget up front, because growing would
// move slots under concurrent readers.
func newCTable(opts Options, shared bool) ctable {
	switch opts.Table {
	case TableCompact, TableCompact128:
		return newCompactTable(opts.Table == TableCompact128, !shared, opts.TableBytes, opts.testPWMask)
	case TableBitstate:
		return newBitTable(opts.TableBytes)
	default:
		shards := 1
		if shared {
			shards = exactShardCount
		}
		return newExactTable(opts.testPWMask, shards)
	}
}

const (
	// compactDefaultBytes sizes a compact table when Options.TableBytes is
	// unset: 64 MiB holds 4M states in 64-bit mode, about three times
	// what the exact table's map holds in the same bytes.
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
// fold their epoch into the fingerprint, so an entry is a (state,
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

// entrySetter is the one primitive of a counting table: set ORs bit into
// the depth bitmap of fp's entry, creating the entry if absent, and reports
// whether bit was newly set and whether the entry was new.
type entrySetter interface {
	set(fp machine.Hash128, bit uint64) (newBit, inserted bool, err error)
}

// claimPair is the claim rule of the counting tables (exact and compact).
// A state's claims at depths below 64 are bits of its base entry; claims at
// depth >= 64 are bits of a (state, depth-epoch) entry, whose fingerprint
// folds the epoch into both lanes. Only the base entry counts the state in
// states, or every extra epoch would count it again; a race-hammer
// invariant (one newState per fingerprint) pins this.
func claimPair(t entrySetter, states *atomic.Int64, fp machine.Hash128, depth int) (claimed, newState bool, err error) {
	epoch := uint64(depth) >> 6
	if epoch != 0 {
		if _, newState, err = t.set(fp, 0); err != nil {
			return false, false, err
		}
		fp = machine.Hash128{
			Lo: machine.Mix64(fp.Lo ^ machine.Mix64(epoch^depthEpochTag)),
			Hi: machine.Mix64(fp.Hi ^ epoch),
		}
	}
	claimed, inserted, err := t.set(fp, 1<<(uint(depth)&63))
	if err != nil {
		return false, false, err
	}
	if epoch == 0 {
		newState = inserted
	}
	if newState {
		states.Add(1)
	}
	return claimed, newState, nil
}

// words derives the slot contents from an (epoch-folded) fingerprint: the
// probe word (lane Lo) and the 128-bit check word (lane Hi). Zero is
// reserved as the empty/unpublished marker in both words, so real zeros are
// nudged to 1 — a 2^-64 perturbation already inside the fingerprint
// collision budget.
func (t *compactTable) words(fp machine.Hash128) (pw, check uint64) {
	pw, check = fp.Lo, fp.Hi
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
	return claimPair(t, &t.states, fp, depth)
}

func (t *compactTable) set(fp machine.Hash128, bit uint64) (newBit, inserted bool, err error) {
	base, inserted, err := t.slotFor(t.words(fp))
	if err != nil || bit == 0 {
		return false, inserted, err
	}
	// The atomic Or alone decides the claim, even for the slot's CAS winner:
	// a same-depth visitor may reach the bitmap before the winner does, and
	// the Or hands the claim to exactly one of them. Bits are never cleared,
	// so a plain load that sees the bit already set proves a lost claim
	// without the read-modify-write.
	depths := &t.slots[base+t.stride-1]
	if atomic.LoadUint64(depths)&bit != 0 {
		return false, inserted, nil
	}
	return atomic.OrUint64(depths, bit)&bit == 0, inserted, nil
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

// exactShardCount is the number of independently locked shards of an exact
// table shared by several workers. 64 shards keep the expected number of
// workers contending on one mutex below W^2/64 pairs even at W=16 workers.
// A one-worker walk uses a single shard and takes no locks. Must be a power
// of two.
const exactShardCount = 64

// exactEntryBytes estimates one exact-table entry for Report.Mem: a 24-byte
// (fingerprint, depth bitmap) map slot and its control byte, at a load
// factor of about one half.
const exactEntryBytes = 48

// exactTable is the exact seen-state table (TableExact): an unbounded map
// from an entry's fingerprint to its depth bitmap, claimed by the compact
// table's rule (claimPair). Unlike the compacted tables it never refuses a
// claim and never reports under-approximation.
type exactTable struct {
	// mask truncates fingerprints to (Lo&mask, 0) (Options.testPWMask) so
	// tests can plant collisions deterministically; zero outside tests.
	mask   uint64
	states atomic.Int64 // distinct fingerprints (base entries only)
	shards []exactShard
}

type exactShard struct {
	mu sync.Mutex
	m  map[machine.Hash128]uint64 // (state, depth-epoch) -> claimed depths mod 64
	_  [64]byte                   // shards sit a cache line apart
}

func newExactTable(mask uint64, shards int) *exactTable {
	t := &exactTable{mask: mask, shards: make([]exactShard, shards)}
	for i := range t.shards {
		t.shards[i].m = make(map[machine.Hash128]uint64)
	}
	return t
}

func (t *exactTable) claim(fp machine.Hash128, depth int) (claimed, newState bool, err error) {
	return claimPair(t, &t.states, fp, depth)
}

// set allocates only when a map grows.
func (t *exactTable) set(fp machine.Hash128, bit uint64) (newBit, inserted bool, err error) {
	if t.mask != 0 {
		fp = machine.Hash128{Lo: fp.Lo & t.mask}
	}
	sh := &t.shards[fp.Lo&uint64(len(t.shards)-1)]
	if len(t.shards) > 1 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	depths, hit := sh.m[fp]
	newBit = depths&bit != bit
	if newBit || !hit {
		sh.m[fp] = depths | bit
	}
	return newBit, !hit, nil
}

func (t *exactTable) distinct() int64 { return t.states.Load() }

func (t *exactTable) memBytes() int64 {
	var n int64
	for i := range t.shards {
		n += int64(len(t.shards[i].m)) * exactEntryBytes
	}
	return n
}

func (t *exactTable) occupancy() float64                   { return 0 }
func (t *exactTable) falseMergeProb(deduped int64) float64 { return 0 }

// claimer is the claim point of an exploration: it fingerprints a
// configuration (exactly, or up to symmetry) and claims its (state, depth)
// pair in the table Options.Table selects. With Dedup off the table only
// backs the DistinctStates count and every claim succeeds.
type claimer struct {
	table     ctable
	countOnly bool
	symmetry  bool
	// unkeyable records that some configuration exposed no canonical state
	// key; DistinctStates then reports 0.
	unkeyable atomic.Bool
}

// keyScratch is one claimant's reusable symmetric-key buffers.
type keyScratch struct {
	buf []byte
	sym sim.SymScratch
}

func newClaimer(opts Options, shared bool) *claimer {
	return &claimer{table: newCTable(opts, shared), countOnly: !opts.Dedup, symmetry: opts.Symmetry}
}

// claim reports whether the caller owns the expansion of sys at depth. The
// configuration's fingerprint is sim.System.StateHash128, computed without
// materializing a key, except under Symmetry, whose sorted-multiset
// canonicalization needs the key bytes anyway and hashes them. The error is
// non-nil only for a full compacted table (ErrTableFull).
func (c *claimer) claim(sys *sim.System, depth int, ks *keyScratch) (bool, error) {
	var fp machine.Hash128
	ok := false
	if c.symmetry {
		var key []byte
		key, ok = sys.AppendSymStateKey(ks.buf[:0], &ks.sym)
		ks.buf = key[:0]
		fp = machine.HashBytes128(key)
	} else {
		fp, ok = sys.StateHash128()
	}
	if !ok {
		c.unkeyable.Store(true)
		return true, nil
	}
	return c.claimFingerprint(fp, depth)
}

// claimFingerprint claims the fingerprinted (state, depth) pair.
func (c *claimer) claimFingerprint(fp machine.Hash128, depth int) (bool, error) {
	claimed, _, err := c.table.claim(fp, depth)
	return claimed || c.countOnly, err
}

// summarize fills the table-derived Report fields once every claimant has
// finished. Only a compacted table that pruned something may have merged
// two distinct states on a fingerprint (see the contract above).
func (c *claimer) summarize(rep *Report) {
	rep.DistinctStates = c.table.distinct()
	rep.Mem.TableBytes = c.table.memBytes()
	rep.Mem.TableOccupancy = c.table.occupancy()
	if _, exact := c.table.(*exactTable); !exact && rep.Deduped > 0 {
		rep.UnderApprox = true
		rep.FalseMergeProb = c.table.falseMergeProb(rep.Deduped)
	}
	if c.unkeyable.Load() {
		rep.DistinctStates = 0
	}
}
