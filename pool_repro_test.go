package repro

import (
	"context"
	"testing"

	"repro/internal/sim"
)

// A handle's pool recycles run systems across Solves; a rebuilt (recycled)
// fork must be indistinguishable from a fresh one — same initial state key,
// same execution under the same seed, run after run.
func TestPooledRunRecyclingDeterministic(t *testing.T) {
	p, err := Compile("T1.9", 5)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{3, 1, 4, 1, 2}
	// Prime the snapshot cache so newRun forks (and recycles) thereafter.
	if _, err := p.Solve(context.Background(), inputs, Seed(1)); err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) (string, int64) {
		sys, err := p.newRun(inputs)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		key, _ := sys.StateKey()
		if _, err := sys.RunContext(context.Background(), sim.NewRandom(seed), 100000); err != nil {
			t.Fatal(err)
		}
		return key, sys.Steps()
	}
	k1, s1 := run(2) // pool empty at fork time: the fresh path
	for i := 0; i < 4; i++ {
		k, s := run(2) // recycled path
		if k != k1 || s != s1 {
			t.Fatalf("recycled run %d diverged: key match=%v steps %d vs %d", i, k == k1, s, s1)
		}
	}
}

// A warm handle's repeat Solve must stay within a small allocation budget:
// the run system comes from the pool, so what remains is the protocol's own
// working state (T1.9's big.Int arithmetic), the result, and the outcome.
// Measured at ~200 allocations when the pooling work landed; the bound has
// 2x headroom and exists to catch the pool silently detaching (which puts a
// full system construction — thousands of allocations — back on every call).
func TestSolveRepeatAllocs(t *testing.T) {
	p, err := Compile("T1.9", 5)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{3, 1, 4, 1, 2}
	ctx := context.Background()
	for i := int64(1); i <= 3; i++ {
		if _, err := p.Solve(ctx, inputs, Seed(i)); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := p.Solve(ctx, inputs, Seed(7)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per repeat Solve: %.1f", avg)
	if avg > 400 {
		t.Fatalf("repeat Solve allocates %.0f times, want <= 400", avg)
	}
}

// solveAllocBudgets pins a warm repeat Solve's allocations on every
// Hierarchy(2) row at n=4 (inputs 3,1,0,2 reduced mod the row's values,
// seed 7): the measured count plus about 15%. A repeat Solve forks the
// handle's pristine snapshot into a pooled system, so what is left is the
// per-Solve result, statistics and scheduler (15 allocations), each row's
// published payloads — a fresh vector per swap or register write, the
// buffer-read results and the reconstructed history each append carries —
// and, on the arithmetic rows, the boxing of each stored word above 255
// (the memory keeps values as interfaces). Measured: T1.1 15, T1.2 15,
// T1.3 35, T1.4 15, T1.5 93, T1.6 227, T1.7 15, T1.8 15, T1.9 15, T1.10 15,
// T1.11 28, T1.12 23, T1.13 20, T1.14 32, T1.15 27, T1.MA 227, MP.QSC 162.
// Before the counter machines decoded scans into storage they own, T1.13
// took 129 and T1.15 136; before the Lemma 5.2 lift's slot recovery read
// words without a big.Int, T1.2 and T1.4 took 20 and T1.7 and T1.8 19.
var solveAllocBudgets = map[string]float64{
	"T1.1": 18, "T1.2": 18, "T1.3": 41, "T1.4": 18, "T1.5": 107, "T1.6": 262,
	"T1.7": 18, "T1.8": 18, "T1.9": 18, "T1.10": 18, "T1.11": 33, "T1.12": 27,
	"T1.13": 23, "T1.14": 37, "T1.15": 32, "T1.MA": 262, "MP.QSC": 187,
}

// warmSolveAllocs compiles row at n=4, warms the handle's snapshot cache
// and run pool, and returns a repeat Solve's allocations and steps at seed.
func warmSolveAllocs(t *testing.T, row string, seed int64) (allocs float64, steps int64) {
	t.Helper()
	p, err := Compile(row, 4)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{3, 1, 0, 2}
	for i := range inputs {
		inputs[i] %= p.Values()
	}
	ctx := context.Background()
	for i := int64(1); i <= 3; i++ {
		if _, err := p.Solve(ctx, inputs, Seed(i)); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(50, func() {
		out, err := p.Solve(ctx, inputs, Seed(seed))
		if err != nil {
			t.Fatal(err)
		}
		steps = out.Steps
	})
	return allocs, steps
}

// checkSolveAllocs holds each row's warm repeat Solve to its budget in
// solveAllocBudgets.
func checkSolveAllocs(t *testing.T, rows ...string) {
	for _, row := range rows {
		t.Run(row, func(t *testing.T) {
			budget, ok := solveAllocBudgets[row]
			if !ok {
				t.Fatalf("no allocation budget for row %s", row)
			}
			avg, _ := warmSolveAllocs(t, row, 7)
			t.Logf("allocs per repeat Solve: %.1f", avg)
			if avg > budget {
				t.Fatalf("repeat Solve allocates %.0f times, want <= %.0f", avg, budget)
			}
		})
	}
}

// TestSolveRowAllocs holds every Hierarchy(2) row to its budget.
func TestSolveRowAllocs(t *testing.T) {
	var rows []string
	for _, r := range Hierarchy(2) {
		rows = append(rows, r.ID)
	}
	checkSolveAllocs(t, rows...)
}

// TestSolveBodyRowAllocs holds the rows whose payloads are vectors and
// histories (T1.1, T1.3, T1.5, T1.6, T1.MA) to their budgets.
func TestSolveBodyRowAllocs(t *testing.T) {
	checkSolveAllocs(t, "T1.1", "T1.3", "T1.5", "T1.6", "T1.MA")
}

// TestSolveUnaryRowAllocs holds the unary-bit rows (T1.2 over
// write(0)/write(1) bits, T1.4 over test-and-set/reset bits) to their
// budgets. Their racing counters are UnaryMachines, whose scans
// double-collect 6n bit locations into one buffer the machine owns, so a
// repeat Solve allocates nothing per collect or per scan.
func TestSolveUnaryRowAllocs(t *testing.T) {
	checkSolveAllocs(t, "T1.2", "T1.4")
}

// TestSolveAllocsFlatInSteps checks that a warm Solve's allocations do not
// grow with its steps on the rows that allocate nothing per step: the
// unary-bit rows, the increment rows, the max-register row and T1.1. Each
// runs at seeds with different step counts, and no run may allocate more
// than the shortest. The add and multiply rows' machines allocate nothing
// per step either (internal/counter TestMachineStepAllocs), but their
// memory boxes each stored word above 255, which grows with the steps.
func TestSolveAllocsFlatInSteps(t *testing.T) {
	for _, row := range []string{"T1.1", "T1.2", "T1.4", "T1.7", "T1.8", "T1.9"} {
		t.Run(row, func(t *testing.T) {
			type run struct {
				seed   int64
				allocs float64
				steps  int64
			}
			var runs []run
			for seed := int64(1); seed <= 6; seed++ {
				a, s := warmSolveAllocs(t, row, seed)
				runs = append(runs, run{seed, a, s})
			}
			shortest, longest := runs[0], runs[0]
			for _, r := range runs {
				if r.steps < shortest.steps {
					shortest = r
				}
				if r.steps > longest.steps {
					longest = r
				}
			}
			if shortest.steps == longest.steps {
				t.Fatalf("every seed runs %d steps; the check needs two step counts", shortest.steps)
			}
			for _, r := range runs {
				if r.allocs > shortest.allocs {
					t.Fatalf("seed %d: %.0f allocations over %d steps, more than the %.0f over %d steps at seed %d",
						r.seed, r.allocs, r.steps, shortest.allocs, shortest.steps, shortest.seed)
				}
			}
			t.Logf("%.0f allocations over %d to %d steps", shortest.allocs, shortest.steps, longest.steps)
		})
	}
}
