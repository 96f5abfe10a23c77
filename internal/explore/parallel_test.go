package explore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// stripMem clears Report.Mem before a byte-identity comparison: the memory
// telemetry is diagnostic and shaped by the worker count and spilling by
// design (the frontier peak depends on scheduling), so Report's contract
// excludes it from the identity guarantees.
func stripMem(r *Report) *Report {
	c := *r
	c.Mem = MemStats{}
	return &c
}

// stripSchedules clears Mem and reduces the violations to their sorted
// problem strings: the parts of a Report a several-worker walk with Dedup
// fixes by itself, before Exhaustive re-labels its violations on one worker.
func stripSchedules(r *Report) *Report {
	c := stripMem(r)
	c.Violations = nil
	for _, v := range r.Violations {
		c.Violations = append(c.Violations, Violation{Problem: v.Problem})
	}
	slices.SortStableFunc(c.Violations, func(a, b Violation) int { return strings.Compare(a.Problem, b.Problem) })
	return c
}

// walkOnly runs the walk as it stands, without Exhaustive's one-worker
// re-run after a violation under Dedup.
func walkOnly(t *testing.T, f Factory, opts Options) *Report {
	t.Helper()
	root, err := f()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := newWalker(f, root, opts).walk(context.Background())
	if err != nil {
		t.Fatalf("workers=%d: %v", opts.Workers, err)
	}
	return rep
}

// battery drives one factory through the walk at several worker counts and
// requires each Report byte-identical, Mem aside, to the one-worker run's:
// the claimed (state, depth) pairs do not depend on which worker claims
// first, and the merge sorts violations into depth-first order. Where a
// several-worker walk with Dedup finds violations, Exhaustive re-labels them
// on one worker; the several-worker walk's own counters, decided values and
// violation problems are then checked separately. It returns the one-worker
// Report.
func battery(t *testing.T, f Factory, opts Options, workers []int) *Report {
	t.Helper()
	one := opts
	one.Workers = 0
	oracle := run(t, f, one)
	batteryAgainst(t, oracle, f, opts, workers)
	return oracle
}

// batteryAgainst is battery with the one-worker Report already in hand.
func batteryAgainst(t *testing.T, oracle *Report, f Factory, opts Options, workers []int) {
	t.Helper()
	for _, wk := range workers {
		po := opts
		po.Workers = wk
		par, err := Exhaustive(context.Background(), f, po)
		if err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		if !reflect.DeepEqual(stripMem(par), stripMem(oracle)) {
			t.Fatalf("workers=%d %+v: report depends on the worker count\none  %+v\nmany %+v",
				wk, opts, oracle, par)
		}
		if opts.Dedup && workerCount(po) > 1 && len(oracle.Violations) > 0 {
			if raw := walkOnly(t, f, po); !reflect.DeepEqual(stripSchedules(raw), stripSchedules(oracle)) {
				t.Fatalf("workers=%d %+v: several-worker walk diverged before re-labelling\none  %+v\nmany %+v",
					wk, opts, oracle, raw)
			}
		}
	}
}

// portfolioDepth bounds the per-protocol exploration so the undeduplicated
// trees stay in the thousands of nodes (branching is the process count).
func portfolioDepth(inputs []int) int {
	if len(inputs) >= 4 {
		return 5
	}
	return 6
}

// TestParallelMatchesSequential is the headline worker-count battery:
// every forkable protocol x dedup on/off x symmetry on/off x every table
// mode, spilled and unspilled, at 1/2/4/8 workers against the one-worker
// walk; then the CanDecide oracle cross-checked against the decided-value
// set.
func TestParallelMatchesSequential(t *testing.T) {
	workers := []int{1, 2, 4, 8}
	for _, tc := range consensus.ForkablePortfolio() {
		t.Run(tc.Name, func(t *testing.T) {
			f := factoryFor(tc.Build, tc.Inputs)
			depth := portfolioDepth(tc.Inputs)
			var rep *Report
			for _, dedup := range []bool{false, true} {
				for _, sym := range []bool{false, true} {
					for _, table := range []Table{TableExact, TableCompact, TableCompact128, TableBitstate} {
						// A small budget keeps the pre-sized compacted tables
						// cheap to allocate; these spaces fill a few percent.
						opts := Options{MaxDepth: depth, Dedup: dedup, Symmetry: sym, Table: table, TableBytes: 1 << 20}
						rep = battery(t, f, opts, workers)
						if table != TableExact {
							continue
						}
						opts.SpillNodes, opts.SpillDir = 4, t.TempDir()
						if spilled := battery(t, f, opts, workers); !reflect.DeepEqual(stripMem(spilled), stripMem(rep)) {
							t.Fatalf("%+v: spilling changed the report\nplain   %+v\nspilled %+v", opts, rep, spilled)
						}
					}
				}
			}

			// CanDecide verdicts: over the same schedule envelope, the
			// bounded valency oracle must say v is decidable exactly when the
			// exploration observed a decision on v.
			all := make([]int, len(tc.Inputs))
			for i := range all {
				all[i] = i
			}
			checked := map[int]bool{}
			for _, v := range tc.Inputs {
				if checked[v] {
					continue
				}
				checked[v] = true
				can, err := CanDecide(f, nil, all, v, depth)
				if err != nil {
					t.Fatal(err)
				}
				if want := slices.Contains(rep.DecidedValues, v); can != want {
					t.Fatalf("CanDecide(%d) = %v, explored decided set %v", v, can, rep.DecidedValues)
				}
			}
		})
	}
}

// TestParallelSoloBudget: the obstruction-freedom probes run inside workers;
// the report stays byte-identical to the one-worker walk's.
func TestParallelSoloBudget(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.CAS(2) }, []int{0, 1})
	battery(t, f, Options{SoloBudget: 5}, []int{1, 2, 4})
	f = factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1})
	battery(t, f, Options{MaxDepth: 7, SoloBudget: 60}, []int{1, 4})
}

// TestParallelCatchesBrokenProtocol: the planted agreement violation must
// surface with the identical DFS-ordered witness schedules, at every worker
// count, with dedup on and off.
func TestParallelCatchesBrokenProtocol(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		if rep := battery(t, broken, Options{Dedup: dedup}, []int{1, 2, 4, 8}); len(rep.Violations) == 0 {
			t.Fatalf("dedup=%v: exploration missed the agreement violation", dedup)
		}
	}
}

// TestParallelMaxRunsFallsBack: a run cap is a DFS-order notion, so a
// capped walk runs on one worker whatever Workers says.
func TestParallelMaxRunsFallsBack(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{0, 1, 2})
	if rep := battery(t, f, Options{MaxDepth: 12, MaxRuns: 5}, []int{8}); !rep.Truncated {
		t.Fatal("expected truncation")
	}
}

// TestParallelDedupCollapsesStates: the sharded (state, depth) table must
// prune commuting interleavings under several workers, not just match the
// no-dedup tree.
func TestParallelDedupCollapsesStates(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1})
	plain, err := Exhaustive(context.Background(), f, Options{MaxDepth: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := Exhaustive(context.Background(), f, Options{MaxDepth: 10, Workers: 4, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if dedup.States >= plain.States {
		t.Fatalf("dedup visited %d states, plain %d: no collapse", dedup.States, plain.States)
	}
	if dedup.Deduped == 0 {
		t.Fatal("dedup pruned nothing")
	}
	if dedup.DistinctStates != plain.DistinctStates {
		t.Fatalf("distinct states changed under dedup: %d vs %d", dedup.DistinctStates, plain.DistinctStates)
	}
}

// --- randomized-protocol fuzzing ---------------------------------------------

// fuzzSet is the instruction set the random programs draw from.
var fuzzSet = machine.NewInstrSet("fuzz",
	machine.OpRead, machine.OpWrite, machine.OpFetchAndAdd, machine.OpCompareAndSwap)

// randFuzzOp draws one instruction of a random program over locations
// 0..locs-1.
func randFuzzOp(rng *rand.Rand, locs int) sim.OpInfo {
	loc := rng.Intn(locs)
	op := []machine.Op{machine.OpRead, machine.OpWrite, machine.OpFetchAndAdd, machine.OpCompareAndSwap}[rng.Intn(4)]
	arg := int64(rng.Intn(5))
	cmpTo := int64(rng.Intn(3))
	info := sim.OpInfo{Loc: loc, Op: op}
	switch op {
	case machine.OpRead:
	case machine.OpCompareAndSwap:
		info.Args = []machine.Value{machine.Int(cmpTo), machine.Int(arg)}
	default: // write, fetch-add
		info.Args = []machine.Value{machine.Int(arg)}
	}
	return info
}

// fuzzStepper executes a fixed random program as a forkable state machine.
// Control flow is data-dependent — an odd result hash skips the next
// instruction — so the state graph is irregular and two interleavings
// rarely commute, which is exactly what shakes races out of the sharded
// table and the frontier. Every process decides 0 (an input), keeping the
// protocol trivially safe: the fuzz compares exploration accounting, not
// consensus semantics.
type fuzzStepper struct {
	prog []sim.OpInfo // shared immutable program
	pc   int
	acc  uint64 // rolling hash of consumed results: the local state
}

func (s *fuzzStepper) Poise() *sim.OpInfo {
	if s.pc >= len(s.prog) {
		return nil
	}
	return &s.prog[s.pc]
}

func (s *fuzzStepper) Resume(res machine.Value) bool {
	s.acc = machine.Mix64(s.acc ^ machine.HashValue(res))
	s.pc++
	if s.acc&1 == 1 {
		s.pc++ // data-dependent branch
	}
	return s.pc >= len(s.prog)
}

func (s *fuzzStepper) Outcome() (bool, int, error) { return s.pc >= len(s.prog), 0, nil }
func (s *fuzzStepper) Halt()                       {}

func (s *fuzzStepper) ForkInto(sim.Stepper) sim.Stepper {
	f := *s
	return &f
}

func (s *fuzzStepper) StateKey() uint64 {
	return machine.Mix64(machine.Mix64(uint64(s.pc)^0x66757a7a) ^ s.acc)
}

// TestParallelFuzzRandomPrograms: seeded random programs, random worker
// counts, dedup on and off — 60 iterations so a table-sharding or
// frontier-handoff race cannot hide behind the fixed portfolio's regular
// state graphs.
func TestParallelFuzzRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	for iter := 0; iter < 60; iter++ {
		n := 2 + rng.Intn(3)    // 2..4 processes
		locs := 1 + rng.Intn(3) // 1..3 locations
		progs := make([][]sim.OpInfo, n)
		for p := range progs {
			plen := 3 + rng.Intn(4)
			prog := make([]sim.OpInfo, plen)
			for i := range prog {
				prog[i] = randFuzzOp(rng, locs)
			}
			progs[p] = prog
		}
		f := func() (*sim.System, error) {
			steppers := make([]sim.Stepper, n)
			for p := range steppers {
				steppers[p] = &fuzzStepper{prog: progs[p]}
			}
			return sim.NewSystemSteppers(machine.New(fuzzSet, locs), make([]int, n), steppers), nil
		}
		depth := 4 + rng.Intn(2)
		if n == 4 {
			depth = 4
		}
		dedup := iter%2 == 0
		wk := []int{1 + rng.Intn(8), 1 + rng.Intn(8)}
		t.Run(fmt.Sprintf("iter%02d-n%d-depth%d-dedup%v", iter, n, depth, dedup), func(t *testing.T) {
			battery(t, f, Options{MaxDepth: depth, Dedup: dedup}, wk)
		})
	}
}
