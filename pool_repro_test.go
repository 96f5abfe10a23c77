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

// The rows whose payloads are vectors and histories (T1.1, T1.3, T1.5,
// T1.6, T1.MA) hold allocation budgets too. A repeat Solve forks the
// handle's pristine snapshot into a pooled system, so what remains is each
// row's published payloads: a fresh vector per swap or register write, the
// buffer-read results and the reconstructed history each append carries.
// Measured on 4-process inputs at seed 7: T1.1 22, T1.3 42, T1.5 96 (544
// on the coroutine Body adapter), T1.6 232 (1164 on the adapter) and T1.MA
// 232. The bounds sit 16-18% above the measurement.
func TestSolveBodyRowAllocs(t *testing.T) {
	for _, tc := range []struct {
		row    string
		budget float64
	}{
		{"T1.1", 26},
		{"T1.3", 49},
		{"T1.5", 112},
		{"T1.6", 270},
		{"T1.MA", 270},
	} {
		t.Run(tc.row, func(t *testing.T) {
			p, err := Compile(tc.row, 4)
			if err != nil {
				t.Fatal(err)
			}
			inputs := []int{3, 1, 0, 2}
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
			if avg > tc.budget {
				t.Fatalf("repeat Solve allocates %.0f times, want <= %.0f", avg, tc.budget)
			}
		})
	}
}

// The unary-bit rows (T1.2 over write(0)/write(1) bits, T1.4 over
// test-and-set/reset bits) run their racing counters as UnaryMachines,
// whose scans double-collect 6n bit locations. A machine keeps both
// collects and its scan result in one buffer it owns, so a repeat Solve
// allocates nothing per collect or per scan: what remains is the per-Solve
// result, statistics and scheduler. Measured on 4-process inputs at seed 7: T1.2
// 20, T1.4 20 (109 each while every collect and scan allocated). The bounds
// sit 15% above the measurement.
func TestSolveUnaryRowAllocs(t *testing.T) {
	for _, tc := range []struct {
		row    string
		budget float64
	}{
		{"T1.2", 23},
		{"T1.4", 23},
	} {
		t.Run(tc.row, func(t *testing.T) {
			p, err := Compile(tc.row, 4)
			if err != nil {
				t.Fatal(err)
			}
			inputs := []int{3, 1, 0, 2}
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
			if avg > tc.budget {
				t.Fatalf("repeat Solve allocates %.0f times, want <= %.0f", avg, tc.budget)
			}
		})
	}
}
