package explore

import (
	"context"
	"testing"

	"repro/internal/consensus"
	"repro/internal/sim"
)

// maxAllocsPerState is the regression bound for the pooled sequential
// explorer on a straight-line-heavy symmetric workload. The fork pooling
// work landed at ~4.3 allocations per expanded state (from ~47 before
// pooling); the bound leaves headroom for Go-version and map-growth noise
// while still catching any order-of-magnitude backslide — a lost pool
// attachment, a stepper that stops implementing ForkerInto, a fresh closure
// reappearing on the hot path.
const maxAllocsPerState = 10.0

// TestExploreAllocsPerState pins the explorer's per-state allocation rate
// on one worker with dedup and symmetry — the configuration of the retired
// increment4-sym-explore benchmark row (EXPERIMENTS.md).
func TestExploreAllocsPerState(t *testing.T) {
	opts := Options{MaxDepth: 7, Dedup: true, Symmetry: true}
	factory := func() (*sim.System, error) {
		return consensus.Increment(4).NewSystem([]int{1, 0, 1, 0})
	}
	rep, err := Exhaustive(context.Background(), factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.States == 0 {
		t.Fatal("exploration expanded no states")
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := Exhaustive(context.Background(), factory, opts); err != nil {
			t.Fatal(err)
		}
	})
	perState := avg / float64(rep.States)
	t.Logf("%.0f allocs over %d states = %.2f per state", avg, rep.States, perState)
	if perState > maxAllocsPerState {
		t.Fatalf("%.2f allocations per explored state, want <= %.1f", perState, maxAllocsPerState)
	}
}
