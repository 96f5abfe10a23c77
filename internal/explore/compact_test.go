package explore

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// stripApprox extends stripMem for compacted-vs-exact comparisons: the
// compacted side additionally reports its under-approximation bound, which
// the exact oracle by definition never sets, so those two fields are
// compared separately (see TestCompactReportsUnderApprox) and cleared here.
func stripApprox(r *Report) *Report {
	c := *stripMem(r)
	c.UnderApprox = false
	c.FalseMergeProb = 0
	return &c
}

// --- fingerprint-only key emission -------------------------------------------

// TestStateHash128MatchesKey: the streaming fingerprint must be a pure
// function of the canonical key — equal keys hash equal, distinct keys hash
// distinct (up to the 128-bit collision bound, which these few thousand
// states cannot plausibly hit) — and the ok flag must agree with
// AppendStateKey's exactly. Checked over every configuration of several
// portfolio explorations and of the broken protocol.
func TestStateHash128MatchesKey(t *testing.T) {
	factories := []Factory{
		factoryFor(func() *consensus.Protocol { return consensus.CAS(3) }, []int{0, 1, 2}),
		factoryFor(func() *consensus.Protocol { return consensus.Increment(3) }, []int{1, 0, 1}),
		factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1}),
		broken,
	}
	byKey := make(map[string]machine.Hash128)
	byFP := make(map[machine.Hash128]string)
	checked := 0
	for _, f := range factories {
		root, err := f()
		if err != nil {
			t.Fatal(err)
		}
		stack := []*sim.System{root}
		depth := map[*sim.System]int{root: 0}
		for len(stack) > 0 {
			sys := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			key, kok := sys.AppendStateKey(nil)
			fp, fok := sys.StateHash128()
			if kok != fok {
				t.Fatalf("ok flags disagree: AppendStateKey %v, StateHash128 %v", kok, fok)
			}
			if kok {
				checked++
				if prev, hit := byKey[string(key)]; hit && prev != fp {
					t.Fatalf("equal keys, distinct fingerprints: %x vs %x", prev, fp)
				}
				byKey[string(key)] = fp
				if prev, hit := byFP[fp]; hit && prev != string(key) {
					t.Fatalf("fingerprint collision between distinct keys:\n%q\n%q", prev, string(key))
				}
				byFP[fp] = string(key)
			}
			if d := depth[sys]; d < 4 {
				for _, pid := range sys.LiveSet() {
					child, err := sys.Fork()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := child.Step(pid); err != nil {
						t.Fatal(err)
					}
					stack = append(stack, child)
					depth[child] = d + 1
				}
			}
			delete(depth, sys)
			sys.Close()
		}
	}
	if checked < 100 {
		t.Fatalf("only %d keyed configurations checked", checked)
	}
}

// --- compacted-vs-exact differential battery ---------------------------------

// TestCompactMatchesExact is the soundness battery for hash compaction:
// over the forkable portfolio x {replay oracle, one worker, 2 and 4
// workers} x symmetry on/off x {compact, compact128}, the compacted run
// must reproduce the exact run of the same explorer field-for-field
// (telemetry and the under-approximation bound aside). At these state counts a 64-bit
// fingerprint collision has probability ~2^-40 per instance, so any
// divergence is a real bug, not bad luck.
func TestCompactMatchesExact(t *testing.T) {
	type variant struct {
		name    string
		run     func(*testing.T, Factory, Options) *Report
		workers int
	}
	variants := []variant{
		{"replay", runReplay, 0},
		{"fork", run, 0},
		{"par2", run, 2},
		{"par4", run, 4},
	}
	for _, tc := range consensus.ForkablePortfolio() {
		t.Run(tc.Name, func(t *testing.T) {
			f := factoryFor(tc.Build, tc.Inputs)
			depth := portfolioDepth(tc.Inputs)
			for _, sym := range []bool{false, true} {
				if sym && tc.Name == "racing-board" {
					// Replay-based symmetric runs of the slowest instance add
					// little beyond the rest of the battery.
					continue
				}
				for _, v := range variants {
					opts := Options{MaxDepth: depth, Dedup: true, Symmetry: sym, Workers: v.workers}
					exact := v.run(t, f, opts)
					for _, mode := range []Table{TableCompact, TableCompact128} {
						co := opts
						co.Table = mode
						compact := v.run(t, f, co)
						if !reflect.DeepEqual(stripApprox(compact), stripApprox(exact)) {
							t.Fatalf("%s sym=%v %v: compacted run diverged\nexact   %+v\ncompact %+v",
								v.name, sym, mode, exact, compact)
						}
					}
				}
			}
		})
	}
}

// TestBitstateMatchesPairClaims: bitstate claims (state, depth) pairs — the
// exact table's rule — so at negligible occupancy (no false positives
// plausible) its counters must reproduce the exact run's at every worker
// count, with DistinctStates 0 (uncountable) and, whenever anything was
// pruned, the under-approximation flag raised with a nonzero probability
// bound.
func TestBitstateMatchesPairClaims(t *testing.T) {
	for _, tc := range consensus.ForkablePortfolio()[:6] {
		t.Run(tc.Name, func(t *testing.T) {
			f := factoryFor(tc.Build, tc.Inputs)
			depth := portfolioDepth(tc.Inputs)
			oracle := run(t, f, Options{MaxDepth: depth, Dedup: true})
			for _, v := range []struct {
				name    string
				workers int
			}{{"fork", 0}, {"par4", 4}} {
				bit := run(t, f, Options{MaxDepth: depth, Dedup: true, Table: TableBitstate,
					Workers: v.workers})
				if bit.Runs != oracle.Runs || bit.States != oracle.States || bit.Deduped != oracle.Deduped {
					t.Fatalf("%s: counters diverged from pair-claim oracle\noracle   %+v\nbitstate %+v",
						v.name, oracle, bit)
				}
				if !slices.Equal(bit.DecidedValues, oracle.DecidedValues) {
					t.Fatalf("%s: decided %v, oracle %v", v.name, bit.DecidedValues, oracle.DecidedValues)
				}
				if bit.DistinctStates != 0 {
					t.Fatalf("%s: bitstate counted %d distinct states", v.name, bit.DistinctStates)
				}
				if bit.Deduped > 0 {
					if !bit.UnderApprox || bit.FalseMergeProb <= 0 {
						t.Fatalf("%s: pruning run must report under-approximation: %+v", v.name, bit)
					}
				}
			}
		})
	}
}

// TestCompactReportsUnderApprox pins the certificate semantics: a compacted
// run that pruned nothing proves exhaustiveness and must NOT set
// UnderApprox; one that pruned must set it with a positive, sub-1
// probability bound; exact runs never set it.
func TestCompactReportsUnderApprox(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1})
	exact := run(t, f, Options{MaxDepth: 8, Dedup: true})
	if exact.UnderApprox || exact.FalseMergeProb != 0 {
		t.Fatalf("exact run claims under-approximation: %+v", exact)
	}
	pruned := run(t, f, Options{MaxDepth: 8, Dedup: true, Table: TableCompact})
	if pruned.Deduped == 0 {
		t.Fatal("instance no longer exercises dedup")
	}
	if !pruned.UnderApprox || pruned.FalseMergeProb <= 0 || pruned.FalseMergeProb >= 1 {
		t.Fatalf("pruning compact run must bound its risk: %+v", pruned)
	}
	clean := run(t, f, Options{MaxDepth: 8, Table: TableCompact})
	if clean.Deduped != 0 || clean.UnderApprox || clean.FalseMergeProb != 0 {
		t.Fatalf("count-only compact run prunes nothing and must stay exact: %+v", clean)
	}
}

// TestPlantedCollision truncates probe words to 6 bits so fingerprint
// collisions are certain, then checks the contract under real collisions:
// the search may only shrink (merges prune subtrees, never invent states or
// violations), and the report must disclose the risk instead of claiming
// exactness. This is the "detects/reports rather than silently merges"
// guarantee.
func TestPlantedCollision(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1})
	exact := run(t, f, Options{MaxDepth: 8, Dedup: true})
	planted := run(t, f, Options{MaxDepth: 8, Dedup: true, Table: TableCompact, testPWMask: 0x3f})
	if planted.DistinctStates >= exact.DistinctStates {
		t.Fatalf("mask planted no collisions: %d distinct vs %d exact",
			planted.DistinctStates, exact.DistinctStates)
	}
	if planted.States > exact.States || planted.Runs > exact.Runs {
		t.Fatalf("false merges must only shrink the search:\nexact   %+v\nplanted %+v", exact, planted)
	}
	for _, v := range planted.DecidedValues {
		if !slices.Contains(exact.DecidedValues, v) {
			t.Fatalf("planted run decided %v, exact only %v", planted.DecidedValues, exact.DecidedValues)
		}
	}
	if len(planted.Violations) != 0 {
		t.Fatalf("false merges invented violations: %v", planted.Violations)
	}
	if !planted.UnderApprox || planted.FalseMergeProb < 0.5 {
		t.Fatalf("6-bit fingerprints must report near-certain false merges: %+v", planted)
	}

	// The 128-bit mode keeps its check word unmasked, so the same planted
	// probe-word collisions must all be resolved — byte-identical search.
	wide := run(t, f, Options{MaxDepth: 8, Dedup: true, Table: TableCompact128, testPWMask: 0x3f})
	if !reflect.DeepEqual(stripApprox(wide), stripApprox(exact)) {
		t.Fatalf("check word failed to separate planted probe-word collisions:\nexact %+v\nwide  %+v",
			exact, wide)
	}
}

// --- table unit tests --------------------------------------------------------

func fpOf(i uint64) machine.Hash128 {
	return machine.SeedHash128().Word(i)
}

// summary returns the Report fields a table's summarize fills.
func summary(tb ctable) Report {
	var r Report
	tb.summarize(&r)
	return r
}

// TestCompactTableClaims pins the slot semantics of the (state, depth)
// claim rule, growable and pre-sized alike.
func TestCompactTableClaims(t *testing.T) {
	mustClaim := func(tb *slotTable, fp machine.Hash128, depth int, wantClaim, wantNew bool) {
		t.Helper()
		claimed, newState, err := tb.claim(fp, depth)
		if err != nil {
			t.Fatal(err)
		}
		if claimed != wantClaim || newState != wantNew {
			t.Fatalf("claim(depth=%d) = (%v, %v), want (%v, %v)", depth, claimed, newState, wantClaim, wantNew)
		}
	}
	for _, budget := range []int64{0, 1 << 16} {
		tb := newSlotTable(Options{Table: TableCompact, TableBytes: budget}, false)
		mustClaim(tb, fpOf(1), 5, true, true)
		mustClaim(tb, fpOf(1), 5, false, false) // same pair: prune
		mustClaim(tb, fpOf(1), 7, true, false)  // distinct depth: own claim
		mustClaim(tb, fpOf(1), 3, true, false)  // shallower too
		mustClaim(tb, fpOf(1), 3, false, false)
		for _, d := range []int{63, 64, 127, 128} {
			mustClaim(tb, fpOf(1), d, true, false) // new epoch = new slot, same state
			mustClaim(tb, fpOf(1), d, false, false)
		}
		mustClaim(tb, fpOf(2), 100, true, true) // deep first sighting still counts once
		mustClaim(tb, fpOf(2), 101, true, false)
		if got := summary(tb).DistinctStates; got != 2 {
			t.Fatalf("budget=%d: distinct = %d, want 2 (epoch slots must not count)", budget, got)
		}
	}
}

// TestCompactTableGrows: a growable table must survive several rehashes
// without losing or duplicating a fingerprint. Only the default budget
// (zero) leaves growth enabled — explicit budgets pre-size, so this is the
// one path that still rehashes.
func TestCompactTableGrows(t *testing.T) {
	tb := newSlotTable(Options{Table: TableCompact128}, false)
	const n = 5000 // >> slotMinEntries, forces multiple doublings
	for i := uint64(0); i < n; i++ {
		claimed, newState, err := tb.claim(fpOf(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !claimed || !newState {
			t.Fatalf("insert %d: (%v, %v)", i, claimed, newState)
		}
	}
	if got := summary(tb).DistinctStates; got != n {
		t.Fatalf("distinct = %d, want %d", got, n)
	}
	for i := uint64(0); i < n; i++ {
		claimed, newState, err := tb.claim(fpOf(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		if claimed || newState {
			t.Fatalf("revisit %d not found after growth: (%v, %v)", i, claimed, newState)
		}
	}
	if occ := summary(tb).Mem.TableOccupancy; occ <= 0 || occ > 0.75 {
		t.Fatalf("occupancy %v out of growth band", occ)
	}
}

// TestCompactTablePreSized: an explicit budget allocates the table at its
// final size up front and pins it there — no growth rehash, whose transient
// old-plus-doubled footprint (~1.5x) used to bust exactly-fitting caps.
// A budget sized precisely for the final table must accept claims all the
// way to the 15/16 refusal load without ErrTableFull, with the footprint
// exactly the budget and never moving.
func TestCompactTablePreSized(t *testing.T) {
	const entries = 1 << 13
	for _, wide := range []bool{false, true} {
		mode, stride := TableCompact, int64(2)
		if wide {
			mode, stride = TableCompact128, 3
		}
		budget := int64(entries) * stride * 8
		tb := newSlotTable(Options{Table: mode, TableBytes: budget}, false)
		if got := summary(tb).Mem.TableBytes; got != budget {
			t.Fatalf("wide=%v: pre-sized footprint %d, want exactly the budget %d", wide, got, budget)
		}
		limit := uint64(entries) * 15 / 16 // claims below this load must all fit
		for i := uint64(0); i < limit; i++ {
			claimed, newState, err := tb.claim(fpOf(i), 0)
			if err != nil {
				t.Fatalf("wide=%v: claim %d of %d refused under an exactly-fitting budget: %v",
					wide, i, limit, err)
			}
			if !claimed || !newState {
				t.Fatalf("wide=%v: insert %d: (%v, %v)", wide, i, claimed, newState)
			}
		}
		if got := summary(tb).Mem.TableBytes; got != budget {
			t.Fatalf("wide=%v: footprint moved to %d during fill (budget %d)", wide, got, budget)
		}
		if _, _, err := tb.claim(fpOf(limit), 0); !errors.Is(err, ErrTableFull) {
			t.Fatalf("wide=%v: claim past the 15/16 load: err = %v, want ErrTableFull", wide, err)
		}
	}
}

// TestCompactTableFull: a budget-capped table must refuse inserts with
// ErrTableFull instead of looping or silently dropping states.
func TestCompactTableFull(t *testing.T) {
	tb := newSlotTable(Options{Table: TableCompact, TableBytes: 1}, false) // floor: slotMinEntries
	var err error
	for i := uint64(0); err == nil && i < 2*slotMinEntries; i++ {
		_, _, err = tb.claim(fpOf(i), 0)
	}
	if err == nil {
		t.Fatal("tiny table never filled")
	}
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("got %v, want ErrTableFull", err)
	}
	// The walk must surface it, not mislabel the report.
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2})
	w := Options{MaxDepth: 10, Dedup: true, Table: TableCompact, TableBytes: 1}
	if _, err := Exhaustive(context.Background(), f, w); !errors.Is(err, ErrTableFull) {
		t.Fatalf("one worker: got %v, want ErrTableFull", err)
	}
	w.Workers = 4
	if _, err := Exhaustive(context.Background(), f, w); !errors.Is(err, ErrTableFull) {
		t.Fatalf("four workers: got %v, want ErrTableFull", err)
	}
}

// TestBitTableClaims: the blocked Bloom must claim each (fp, depth) pair to
// exactly one caller and treat depths as distinct claim units.
func TestBitTableClaims(t *testing.T) {
	tb := newBitTable(1 << 20)
	if claimed, _, _ := tb.claim(fpOf(1), 3); !claimed {
		t.Fatal("first claim refused")
	}
	if claimed, _, _ := tb.claim(fpOf(1), 3); claimed {
		t.Fatal("duplicate claim granted")
	}
	if claimed, _, _ := tb.claim(fpOf(1), 4); !claimed {
		t.Fatal("distinct depth not its own claim")
	}
	if summary(tb).DistinctStates != 0 {
		t.Fatal("bitstate cannot count distinct states")
	}
	if occ := tb.occupancy(); occ <= 0 {
		t.Fatal("occupancy not tracked")
	}
}

// TestCompactTableClaimInvariance is the -race hammer for a shared
// compacted table pre-sized by an explicit budget: many goroutines race
// claims over a shared (fingerprint, depth) workload; every pair must be
// granted exactly once and every fingerprint counted exactly once, no
// matter the interleaving. Failures here are either lost claims (double
// expansion) or double counting — the two invariants the walk's accounting
// stands on. TestSeenTableClaimRace hammers the growing default-budget
// tables.
func TestCompactTableClaimInvariance(t *testing.T) {
	const (
		goroutines = 8
		fps        = 512
		depths     = 70 // crosses the 64-depth epoch fold
	)
	for _, wide := range []bool{false, true} {
		mode := TableCompact
		if wide {
			mode = TableCompact128
		}
		tb := newSlotTable(Options{Table: mode, TableBytes: 1 << 22}, true)
		claims := make([]int32, fps*depths)
		news := make([]int32, fps)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				order := rng.Perm(fps * depths)
				for _, i := range order {
					fp, depth := uint64(i/depths), i%depths
					claimed, newState, err := tb.claim(fpOf(fp), depth)
					if err != nil {
						t.Error(err)
						return
					}
					if claimed {
						atomic.AddInt32(&claims[i], 1)
					}
					if newState {
						atomic.AddInt32(&news[fp], 1)
					}
				}
			}(int64(g) + 1)
		}
		wg.Wait()
		for i, c := range claims {
			if c != 1 {
				t.Fatalf("wide=%v: pair %d claimed %d times", wide, i, c)
			}
		}
		for fp, c := range news {
			if c != 1 {
				t.Fatalf("wide=%v: fingerprint %d counted new %d times", wide, fp, c)
			}
		}
		if got := summary(tb).DistinctStates; got != fps {
			t.Fatalf("wide=%v: distinct = %d, want %d", wide, got, fps)
		}
	}
}

// TestBitTableClaimInvariance: the same exactly-once claim contract for the
// Bloom filter's single-word atomic Or.
func TestBitTableClaimInvariance(t *testing.T) {
	const (
		goroutines = 8
		pairs      = 4096
	)
	tb := newBitTable(1 << 22) // sparse: false positives implausible
	claims := make([]int32, pairs)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for _, i := range rng.Perm(pairs) {
				claimed, _, err := tb.claim(fpOf(uint64(i)), i%8)
				if err != nil {
					t.Error(err)
					return
				}
				if claimed {
					atomic.AddInt32(&claims[i], 1)
				}
			}
		}(int64(g) + 101)
	}
	wg.Wait()
	dropped := 0
	for i, c := range claims {
		if c > 1 {
			t.Fatalf("pair %d claimed %d times", i, c)
		}
		if c == 0 {
			dropped++ // a (sparse-table) false positive; must stay rare
		}
	}
	if dropped > pairs/100 {
		t.Fatalf("%d/%d pairs never granted: false-positive rate implausible for sparse filter", dropped, pairs)
	}
}

// --- disk-spilling frontier --------------------------------------------------

// TestSpillPreservesReport: spilling must be invisible to everything but
// Mem — the reloaded nodes rematerialize by replay into the identical
// configurations, in the identical DFS order, so the whole Report
// (violation schedules included) stays byte-identical to the unspilled run.
func TestSpillPreservesReport(t *testing.T) {
	cases := []struct {
		name  string
		f     Factory
		opts  Options
		spill int
	}{
		{"max-registers", factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2}), Options{MaxDepth: 7}, 6},
		{"dedup", factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1}), Options{MaxDepth: 9, Dedup: true}, 6},
		{"symmetry", factoryFor(func() *consensus.Protocol { return consensus.Increment(3) }, []int{1, 0, 1}), Options{MaxDepth: 6, Dedup: true, Symmetry: true}, 6},
		{"compact", factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1}), Options{MaxDepth: 9, Dedup: true, Table: TableCompact}, 6},
		{"maxruns", factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2}), Options{MaxDepth: 10, MaxRuns: 40}, 6},
		{"broken", broken, Options{MaxDepth: 6}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plain := run(t, tc.f, tc.opts)
			so := tc.opts
			so.SpillNodes, so.SpillDir = tc.spill, dir
			spilled := run(t, tc.f, so)
			if spilled.Mem.SpilledBatches == 0 {
				t.Fatal("frontier never spilled; bound too loose for the instance")
			}
			if !reflect.DeepEqual(stripApprox(spilled), stripApprox(plain)) {
				t.Fatalf("spilling changed the report:\nplain   %+v\nspilled %+v", plain, spilled)
			}
			left, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Fatalf("spill files not removed: %v", left)
			}
		})
	}
}

// TestSpillBoundsResidentFrontier: the point of spilling — the resident
// stack stays around the bound even when the total frontier is much larger.
func TestSpillBoundsResidentFrontier(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2})
	plain := run(t, f, Options{MaxDepth: 8})
	spilled := run(t, f, Options{MaxDepth: 8, SpillNodes: 6, SpillDir: t.TempDir()})
	if plain.Mem.PeakFrontier <= 6 {
		t.Fatalf("instance's frontier peaks at %d; cannot exercise spilling", plain.Mem.PeakFrontier)
	}
	// Peak counts resident + spilled, so it must match the unspilled run's.
	if spilled.Mem.PeakFrontier != plain.Mem.PeakFrontier {
		t.Fatalf("total frontier peak changed: %d vs %d", spilled.Mem.PeakFrontier, plain.Mem.PeakFrontier)
	}
	// Without spilling the whole frontier is resident; with it the resident
	// stack stays within the bound plus one expansion's children (spilling
	// runs after a node's children are pushed).
	if plain.Mem.PeakResident != plain.Mem.PeakFrontier {
		t.Fatalf("unspilled resident peak %d != frontier peak %d",
			plain.Mem.PeakResident, plain.Mem.PeakFrontier)
	}
	if limit := int64(6 + 3); spilled.Mem.PeakResident > limit {
		t.Fatalf("resident frontier peaked at %d, bound %d", spilled.Mem.PeakResident, limit)
	}
}

// TestParallelSpillPreservesReport is the several-worker half of the
// spilling determinism claim: with per-worker spill files the Report must
// stay byte-identical (modulo Mem) to the unspilled run at every worker
// count, and to the unspilled one-worker walk.
func TestParallelSpillPreservesReport(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2})
	for _, dedup := range []bool{false, true} {
		opts := Options{MaxDepth: 7, Dedup: dedup}
		oracle := run(t, f, opts)
		for _, wk := range []int{1, 2, 4} {
			po := opts
			po.Workers = wk
			plain := run(t, f, po)
			dir := t.TempDir()
			po.SpillNodes, po.SpillDir = 4, dir
			spilled := run(t, f, po)
			if spilled.Mem.SpilledBatches == 0 {
				t.Fatalf("dedup=%v workers=%d: frontier never spilled; bound too loose", dedup, wk)
			}
			if !reflect.DeepEqual(stripApprox(spilled), stripApprox(plain)) {
				t.Fatalf("dedup=%v workers=%d: spilling changed the parallel report:\nplain   %+v\nspilled %+v",
					dedup, wk, plain, spilled)
			}
			if left, err := filepath.Glob(filepath.Join(dir, "*")); err != nil || len(left) != 0 {
				t.Fatalf("spill files not removed: %v (%v)", left, err)
			}
			if !reflect.DeepEqual(stripApprox(spilled), stripApprox(oracle)) {
				t.Fatalf("dedup=%v workers=%d: spilled report diverged from the one-worker walk:\none %+v\nthis %+v",
					dedup, wk, oracle, spilled)
			}
		}
	}
}

// TestParallelSpillBoundsResidentFrontier: the per-worker acceptance bound —
// under several workers, no single deque's resident node count may exceed
// the spill bound by more than one expansion's children, even though the
// total frontier is far larger.
func TestParallelSpillBoundsResidentFrontier(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2})
	const bound, procs = 6, 3
	for _, wk := range []int{2, 4} {
		plain := run(t, f, Options{MaxDepth: 8, Workers: wk})
		if plain.Mem.PeakResident <= bound {
			t.Fatalf("workers=%d: deques peak at %d nodes; cannot exercise spilling", wk, plain.Mem.PeakResident)
		}
		spilled := run(t, f, Options{
			MaxDepth: 8, Workers: wk,
			SpillNodes: bound, SpillDir: t.TempDir(),
		})
		if spilled.Mem.SpilledBatches == 0 {
			t.Fatalf("workers=%d: frontier never spilled", wk)
		}
		if limit := int64(bound + procs); spilled.Mem.PeakResident > limit {
			t.Fatalf("workers=%d: a worker deque peaked at %d resident nodes, bound %d",
				wk, spilled.Mem.PeakResident, limit)
		}
	}
}

// TestSpillCorruptReload: reload must reject damaged spill files with an
// error instead of trusting a decoded schedule length — before the bounds
// check, a corrupt length made reload allocate the decoded value (up to
// ~2^61 entries) and panic the process.
func TestSpillCorruptReload(t *testing.T) {
	sp, err := newFrontierSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	nds := []*treeNode{
		{prefix: []int{0, 1, 0, 1, 2, 0}, depth: 6},
		{prefix: []int{1, 1, 2, 0}, depth: 4},
	}
	if err := sp.spill(nds); err != nil {
		t.Fatal(err)
	}

	// Overwrite the batch header with a valid uvarint decoding to ~2^63:
	// the length exceeds the residual batch bytes, so reload must refuse
	// up front rather than hand it to make().
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if _, err := sp.f.WriteAt(huge, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.reload(); err == nil || !strings.Contains(err.Error(), "corrupt spill batch") {
		t.Fatalf("reload of corrupt batch: err = %v, want a corrupt-spill-batch error", err)
	}

	// A truncated file (the batch directory says more bytes than the file
	// holds) must surface as a reload error, not a short decode.
	if err := sp.spill(nds); err != nil {
		t.Fatal(err)
	}
	if err := sp.f.Truncate(sp.off - 3); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.reload(); err == nil {
		t.Fatal("reload of truncated spill file succeeded")
	}
}

// TestPlantedCollisionCountOnly: with deduplication off the seen structures
// only back DistinctStates, which keys on 64-bit hashes — so planted
// collisions may shrink that one count but must leave the search itself
// untouched: every other field byte-identical, and no under-approximation
// flag (the envelope was fully explored). Checked on one worker and on
// four.
func TestPlantedCollisionCountOnly(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1})
	cases := []struct {
		name         string
		base, masked Options
	}{
		{"sequential", Options{MaxDepth: 8},
			Options{MaxDepth: 8, testPWMask: 0x0f}},
		{"parallel", Options{MaxDepth: 8, Workers: 4},
			Options{MaxDepth: 8, Workers: 4, testPWMask: 0x0f}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			exact := run(t, f, tc.base)
			planted := run(t, f, tc.masked)
			if planted.DistinctStates >= exact.DistinctStates {
				t.Fatalf("mask planted no count collisions: %d distinct vs %d",
					planted.DistinctStates, exact.DistinctStates)
			}
			if planted.UnderApprox || planted.FalseMergeProb != 0 {
				t.Fatalf("count-only collisions must not flag under-approximation: %+v", planted)
			}
			pc, ec := *stripMem(planted), *stripMem(exact)
			pc.DistinctStates, ec.DistinctStates = 0, 0
			if !reflect.DeepEqual(&pc, &ec) {
				t.Fatalf("count-only mask perturbed the search:\nexact   %+v\nplanted %+v", exact, planted)
			}
		})
	}
}

// TestSpillDirErrors: an unusable spill directory must surface as an error,
// not a hang or a silent fallback.
func TestSpillDirErrors(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2})
	_, err := Exhaustive(context.Background(), f, Options{
		MaxDepth: 7, SpillNodes: 4, SpillDir: filepath.Join(t.TempDir(), "missing"),
	})
	if err == nil || os.IsExist(err) {
		t.Fatalf("got %v, want a spill-file creation error", err)
	}
}
