package explore

import (
	"context"
	"testing"

	"repro/internal/consensus"
	"repro/internal/sim"
)

// TestExploreAllocsPerState pins the explorer's per-state allocation rate
// on one worker with dedup. The symmetric case is the configuration of the
// retired increment4-sym-explore benchmark row (EXPERIMENTS.md): the fork
// pooling work landed it at ~4.3 allocations per expanded state (from ~47
// before pooling), and it measured 2.78 while the claim built the byte key
// and 2.74 since it streams SymHash128; the bound catches a lost pool
// attachment, a stepper whose ForkInto stops rebuilding in prev, or a fresh
// closure or key buffer per claimed state. The exact case pins that the
// exact table claims a fingerprint rather than a materialized key: it
// measured 1.77 per state, against 2.78 when every new state allocated its
// key string. The mp case explores MP.QSC under reordering delivery: with
// forks sharing channel queues copy-on-write it measured 3.88 per state,
// against 19.54 when every fork deep-copied every non-empty queue; what
// remains is the fresh queue array each send or delivery stores. The maxreg
// case is Theorem 4.2's two max-registers, the heaviest verify-shm row, and
// the mvalued case the n-valued racing counters over one {read, add}
// location. They measured 6.82 and 6.41 per state while the max-register
// stepper deep-copied its read values into fresh big.Ints on every fork and
// both boxed every word they read into a big.Int to decode it; sharing the
// immutable read values and decoding on int64 brought them to 0.89 and 2.40.
// Recycling expanded tree nodes with their last released child, where only
// never-expanded nodes went back to the free list before, took symmetric
// 2.74 -> 2.26, exact 1.47 -> 1.00, mp 3.93 -> 3.38, maxreg 0.89 -> 0.27 and
// mvalued 2.31 -> 1.72; the bounds catch a walk that stops recycling them.
// The spill case is verify-shm's spilling instance, T1.9 n=3 at depth 12
// with a 16-node resident frontier. It measured 1.63 per state while
// expanded nodes stayed unrecycled and spilling built a schedule slice per
// node on the way out and on the way back in, and 0.87 since. Keeping each
// counter machine's collects and scan result in one buffer it owns took
// symmetric 2.26 -> 1.69 and exact 1.00 -> 0.54: the increment machine had
// handed a collect buffer to each scan's result, which forks shared, and
// allocated a fresh one for the next scan's second collect.
func TestExploreAllocsPerState(t *testing.T) {
	increment := func() (*sim.System, error) {
		return consensus.Increment(4).NewSystem([]int{1, 0, 1, 0})
	}
	maxReg := func() (*sim.System, error) {
		return consensus.MaxRegisters(3).NewSystem([]int{0, 1, 2})
	}
	mvalued := func() (*sim.System, error) {
		return consensus.Add(3).NewSystem([]int{0, 1, 2})
	}
	qscReorder := func() (*sim.System, error) {
		return consensus.QSCConfig(3, 2, 2).NewSystem([]int{2, 0, 1},
			sim.WithDelivery(sim.Delivery{Mode: sim.DeliverReorder}))
	}
	cases := []struct {
		name    string
		factory func() (*sim.System, error)
		opts    Options
		bound   float64
	}{
		{"symmetric", increment, Options{MaxDepth: 7, Dedup: true, Symmetry: true}, 2},
		{"exact", increment, Options{MaxDepth: 7, Dedup: true, Table: TableExact}, 0.65},
		{"mp", qscReorder, Options{MaxDepth: 8, Dedup: true, Table: TableExact}, 4},
		{"maxreg", maxReg, Options{MaxDepth: 10, Dedup: true, Table: TableExact}, 0.5},
		{"mvalued", mvalued, Options{MaxDepth: 10, Dedup: true, Table: TableExact}, 2.25},
		{"spill", maxReg, Options{MaxDepth: 12, Dedup: true, Table: TableExact, SpillNodes: 16}, 1.25},
	}
	for _, tc := range cases {
		factory := tc.factory
		t.Run(tc.name, func(t *testing.T) {
			if tc.opts.SpillNodes > 0 {
				tc.opts.SpillDir = t.TempDir()
			}
			rep, err := Exhaustive(context.Background(), factory, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.States == 0 {
				t.Fatal("exploration expanded no states")
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := Exhaustive(context.Background(), factory, tc.opts); err != nil {
					t.Fatal(err)
				}
			})
			perState := avg / float64(rep.States)
			t.Logf("%.0f allocs over %d states = %.2f per state", avg, rep.States, perState)
			if perState > tc.bound {
				t.Fatalf("%.2f allocations per explored state, want <= %.2f", perState, tc.bound)
			}
		})
	}
}
