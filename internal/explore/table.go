package explore

// Seen-state storage, selected by Options.Table. Every table keys a
// configuration by one 128-bit fingerprint (sim.System.StateHash128, or a
// hash of the symmetric key) and claims exact (state, depth) pairs. The
// three counting modes share one open-addressed slot table and differ only
// in slot width and budget: exact and compact128 store the whole
// fingerprint (24 bytes per entry), exact without a cap; the SPIN-style
// hash compaction of TableCompact keeps a 64-bit probe of it (16 bytes)
// under a budget. TableBitstate sets k bits of a Bloom filter (bitstate /
// supertrace, well under a byte per state), trading a quantified
// false-merge probability for one to two orders of magnitude more states
// per gigabyte.
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
// Several workers share a slot table through mutex-guarded shards, each of
// which grows under its own lock; the Bloom filter needs no lock, since a
// claim is one atomic Or on one word.

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Table selects the seen-state storage backing Dedup and the
// DistinctStates accounting.
type Table int

const (
	// TableExact stores each configuration's 128-bit fingerprint in the
	// uncapped slot table (24 bytes per entry), which grows with the
	// exploration. It never refuses a claim and never sets
	// Report.UnderApprox. Like every mode it rests on the 64-bit component
	// hashes beneath the fingerprint, which no table reports; the fold
	// above them adds ~2^-128 per pair of states. The default.
	TableExact Table = iota
	// TableCompact is SPIN-style hash compaction: the slot table over
	// 64-bit fingerprints of the canonical key under a budget, 16 bytes per
	// state (probe word + depth word). False merges occur with birthday
	// probability ~states^2/2^65 and are reported via Report.UnderApprox /
	// FalseMergeProb.
	TableCompact
	// TableCompact128 widens TableCompact with a second, independently
	// seeded 64-bit check word per entry (24 bytes per state: the exact
	// table's slot under a budget), pushing the false-merge bound to
	// ~states^2/2^129 — negligible at any reachable state count. That bound
	// covers the 128-bit fold only, not the 64-bit component hashes beneath
	// it (see the contract above).
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
// DistinctStates unit); it is safe for concurrent use when the table was
// built shared. summarize fills the table-derived Report fields —
// DistinctStates, Mem.TableBytes, Mem.TableOccupancy, and for a compacted
// table that pruned something UnderApprox and FalseMergeProb — once every
// claimant has finished.
type ctable interface {
	claim(fp machine.Hash128, depth int) (claimed, newState bool, err error)
	summarize(rep *Report)
}

// newCTable builds the store for opts.Table: the Bloom filter for bitstate,
// the slot table for every counting mode. shared marks a table several
// workers claim through at once.
func newCTable(opts Options, shared bool) ctable {
	if opts.Table == TableBitstate {
		return newBitTable(opts.TableBytes)
	}
	return newSlotTable(opts, shared)
}

const (
	// compactDefaultBytes caps a compacted slot table when
	// Options.TableBytes is unset: 64 MiB holds 4M states in 64-bit mode.
	compactDefaultBytes = 64 << 20
	// bitstateDefaultBytes sizes the Bloom filter when unset: 32 MiB is
	// 2^28 bits, good for ~20M states below 1% per-query false-merge rate.
	bitstateDefaultBytes = 32 << 20
	// slotMinEntries is the smallest slot table and the size a growable
	// one starts at, split evenly across its shards.
	slotMinEntries = 1 << 10
	// slotMaxEntries stops table sizes below int64 overflow of their byte
	// counts for absurd budgets; a table that size could not be allocated
	// anyway.
	slotMaxEntries = 1 << 55
	// slotShardBits sets the shard count of a shared slot table: 64 shards
	// keep the expected number of workers contending on one mutex below
	// W^2/64 pairs even at W=16 workers.
	slotShardBits = 6
	// bitstateK is the number of bits set per claim. All k bits land in one
	// 64-bit word (a blocked Bloom filter), so a claim is a single atomic
	// Or — which is also what makes concurrent claims exact: the Or returns
	// the prior word, so exactly one claimant observes the last missing bit.
	bitstateK = 3
	// depthEpochTag decorrelates the depth-epoch fold (claims at depth >=
	// 64) from the plain fingerprint space.
	depthEpochTag = 0xc2b2ae3d27d4eb4f
)

// slotTable is the store of the counting modes: open addressing with
// linear probing over slots of `stride` words — the probe word (lane Lo of
// the fingerprint; zero marks an empty slot), the check word (lane Hi;
// exact and compact128 only) and a depth bitmap. Exact and compact128 thus
// store the whole 128-bit fingerprint and differ only in budget: exact is
// uncapped and never reports under-approximation, while compact128 and the
// 64-bit compact mode live under TableBytes and disclose their false-merge
// bound.
//
// Claim rule: the depth word is a bitmap of claimed depths (depths >= 64
// fold their epoch into the fingerprint, so an entry is a (state,
// depth-epoch) pair), so absent collisions every counting mode reproduces
// the same Report.
//
// Sizing and sharing: the table is split into shards by the probe word's
// top bits, which the slot index (its low bits) does not use. A table
// several workers share has 64 shards, each behind its own mutex; a
// one-worker table has one shard and takes no lock. A table without an
// explicit budget (exact always) starts at slotMinEntries entries and each
// shard doubles at 3/4 load — up to its share of the default budget for
// the compacted modes, without bound for exact. An explicit TableBytes
// allocates the final size up front, split across the shards, so the cap
// holds at every instant: a growth rehash transiently holds the old and
// doubled arrays together. A shard at its final size refuses inserts at
// 15/16 load with ErrTableFull, which also guarantees probe termination.
type slotTable struct {
	stride     uint64 // words per slot: probe, [check,] depth bitmap
	compacted  bool   // compact, compact128: budgeted, may under-approximate
	shardShift uint   // shard index = pw >> shardShift (64: the one shard)
	maxEntries uint64 // entries per shard beyond which a shard never grows
	// pwMask truncates probe words (Options.testPWMask) so tests can plant
	// collisions deterministically; zero outside tests.
	pwMask uint64
	states atomic.Int64 // distinct fingerprints (base entries only)
	shards []slotShard
}

type slotShard struct {
	mu    sync.Mutex
	mask  uint64 // entries-1; entries is a power of two
	used  uint64 // slots occupied (incl. depth-epoch entries)
	slots []uint64
	_     [64]byte // shards sit a cache line apart
}

func newSlotTable(opts Options, shared bool) *slotTable {
	t := &slotTable{stride: 3, shardShift: 64, maxEntries: slotMaxEntries, pwMask: opts.testPWMask}
	shards := uint64(1)
	if shared {
		shards, t.shardShift = 1<<slotShardBits, 64-slotShardBits
	}
	entries := uint64(slotMinEntries)
	if opts.Table != TableExact {
		t.compacted = true
		if opts.Table == TableCompact {
			t.stride = 2
		}
		budget := opts.TableBytes
		if budget <= 0 {
			budget = compactDefaultBytes
		}
		// Doubling while the *doubled* table still fits leaves the largest
		// power-of-two table whose bytes fit the budget.
		total := uint64(slotMinEntries)
		for total < slotMaxEntries && int64(total*2)*int64(t.stride)*8 <= budget {
			total *= 2
		}
		t.maxEntries = total / shards
		if opts.TableBytes > 0 {
			entries = total
		}
	}
	t.shards = make([]slotShard, shards)
	for i := range t.shards {
		t.shards[i].mask = entries/shards - 1
		t.shards[i].slots = make([]uint64, entries/shards*t.stride)
	}
	return t
}

// claim is the claim rule of the counting modes. A state's claims at depths
// below 64 are bits of its base entry; claims at depth >= 64 are bits of a
// (state, depth-epoch) entry, whose fingerprint folds the epoch into both
// lanes. Only the base entry counts the state in states, or every extra
// epoch would count it again; a race-hammer invariant (one newState per
// fingerprint) pins this.
func (t *slotTable) claim(fp machine.Hash128, depth int) (claimed, newState bool, err error) {
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
		t.states.Add(1)
	}
	return claimed, newState, nil
}

// set ORs bit into the depth bitmap of fp's entry, creating the entry if
// absent, and reports whether bit was newly set and whether the entry was
// new.
func (t *slotTable) set(fp machine.Hash128, bit uint64) (newBit, inserted bool, err error) {
	pw, check := t.words(fp)
	s := &t.shards[pw>>t.shardShift]
	locked := len(t.shards) > 1
	if locked {
		s.mu.Lock()
	}
	base, inserted, err := t.slotFor(s, pw, check)
	if err == nil {
		depths := &s.slots[base+t.stride-1]
		newBit = *depths&bit != bit
		*depths |= bit
	}
	if locked {
		s.mu.Unlock()
	}
	return newBit, inserted, err
}

// words derives the slot contents from an (epoch-folded) fingerprint: the
// probe word (lane Lo) and the check word (lane Hi). Zero marks an empty
// slot, so a real zero probe word is nudged to 1 — a 2^-64 perturbation
// already inside the fingerprint collision budget. Under the test mask the
// compacted modes truncate only the probe word, so compact128's check word
// still separates the planted collisions, while exact drops its check word
// too, so a masked exact table plants whole-fingerprint collisions.
func (t *slotTable) words(fp machine.Hash128) (pw, check uint64) {
	pw, check = fp.Lo, fp.Hi
	if t.pwMask != 0 {
		pw &= t.pwMask
		if !t.compacted {
			check = 0
		}
	}
	if pw == 0 {
		pw = 1
	}
	return pw, check
}

// slotFor finds or inserts the slot holding (pw, check) in shard s,
// returning its word base and whether this call inserted it. Linear probing
// never leaves gaps (slots are never deleted), so an empty slot proves
// absence.
func (t *slotTable) slotFor(s *slotShard, pw, check uint64) (base uint64, inserted bool, err error) {
	for i := pw; ; i++ {
		base = (i & s.mask) * t.stride
		w := s.slots[base]
		if w == 0 {
			break
		}
		if w == pw && (t.stride == 2 || s.slots[base+1] == check) {
			return base, false, nil
		}
	}
	entries := s.mask + 1
	if entries < t.maxEntries && s.used*4 >= entries*3 {
		s.grow(t.stride)
		base = s.free(pw, t.stride)
	} else if s.used*16 >= entries*15 {
		total := t.maxEntries * uint64(len(t.shards))
		return 0, false, fmt.Errorf("%w (%d entries, %d MiB; raise TableBytes)",
			ErrTableFull, total, total*t.stride*8>>20)
	}
	s.slots[base] = pw
	if t.stride == 3 {
		s.slots[base+1] = check
	}
	s.used++
	return base, true, nil
}

// free returns the word base of the first empty slot on pw's probe
// sequence.
func (s *slotShard) free(pw, stride uint64) uint64 {
	for i := pw; ; i++ {
		if base := (i & s.mask) * stride; s.slots[base] == 0 {
			return base
		}
	}
}

// grow doubles the shard and reinserts every slot.
func (s *slotShard) grow(stride uint64) {
	old := s.slots
	entries := (s.mask + 1) * 2
	s.slots = make([]uint64, entries*stride)
	s.mask = entries - 1
	for base := uint64(0); base < uint64(len(old)); base += stride {
		if pw := old[base]; pw != 0 {
			nb := s.free(pw, stride)
			copy(s.slots[nb:nb+stride], old[base:base+stride])
		}
	}
}

func (t *slotTable) summarize(rep *Report) {
	var used, entries uint64
	for i := range t.shards {
		used += t.shards[i].used
		entries += t.shards[i].mask + 1
	}
	rep.DistinctStates = t.states.Load()
	rep.Mem.TableBytes = int64(entries * t.stride * 8)
	rep.Mem.TableOccupancy = float64(used) / float64(entries)
	if t.compacted && rep.Deduped > 0 {
		rep.UnderApprox = true
		rep.FalseMergeProb = t.falseMergeProb(used)
	}
}

// falseMergeProb is the birthday bound over the entries stored: with D
// fingerprints hashed into b effective bits, some pair of distinct states
// collides with probability ~1 - exp(-D(D-1)/2^(b+1)); only then can any of
// the run's merges have been false.
func (t *slotTable) falseMergeProb(entries uint64) float64 {
	b := 64.0
	if t.pwMask != 0 {
		b = float64(bits.OnesCount64(t.pwMask))
	}
	if t.stride == 3 {
		b += 64
	}
	d := float64(entries)
	return -math.Expm1(-d * (d - 1) / math.Pow(2, b+1))
}

// bitTable is the bitstate (supertrace) store: a blocked Bloom filter whose
// claims are (state, depth) pairs — the depth is folded into the
// fingerprint, so the rule is the exact-pair claim of the other tables.
// Each claim derives one word index and k bit positions from the folded
// fingerprint and issues a single atomic Or; the Or's return value hands
// the pair's expansion to exactly one concurrent claimant. Distinct states
// are uncountable here, so Report.DistinctStates is 0.
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

func (t *bitTable) summarize(rep *Report) {
	rho := t.occupancy()
	rep.DistinctStates = 0
	rep.Mem.TableBytes = int64(len(t.words)) * 8
	rep.Mem.TableOccupancy = rho
	if rep.Deduped > 0 {
		rep.UnderApprox = true
		rep.FalseMergeProb = bitstateFalseMergeProb(rep.Deduped, rho)
	}
}

func (t *bitTable) occupancy() float64 {
	var ones int64
	for _, w := range t.words {
		ones += int64(bits.OnesCount64(w))
	}
	return float64(ones) / float64(len(t.words)*64)
}

// bitstateFalseMergeProb: a query false-merges when all k of its bits were
// already set by other states, which at bit density rho happens with
// probability ~rho^k per merged visit; over `deduped` merges the chance
// that at least one was false is 1 - (1 - rho^k)^deduped.
func bitstateFalseMergeProb(deduped int64, rho float64) float64 {
	if rho >= 1 {
		return 1
	}
	perQuery := math.Pow(rho, bitstateK)
	return -math.Expm1(float64(deduped) * math.Log1p(-perQuery))
}

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

func newClaimer(opts Options, shared bool) *claimer {
	return &claimer{table: newCTable(opts, shared), countOnly: !opts.Dedup, symmetry: opts.Symmetry}
}

// claim reports whether the caller owns the expansion of sys at depth. The
// configuration's fingerprint is sim.System.StateHash128, or under Symmetry
// sim.System.SymHash128 (reusing the claimant's scratch), which streams the
// symmetric key's bytes into the fingerprint without building them. The
// error is non-nil only for a full compacted table (ErrTableFull).
func (c *claimer) claim(sys *sim.System, depth int, sc *sim.SymScratch) (bool, error) {
	var fp machine.Hash128
	ok := false
	if c.symmetry {
		fp, ok = sys.SymHash128(sc)
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
// finished.
func (c *claimer) summarize(rep *Report) {
	c.table.summarize(rep)
	if c.unkeyable.Load() {
		rep.DistinctStates = 0
	}
}
