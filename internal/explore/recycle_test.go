package explore

import (
	"reflect"
	"testing"

	"repro/internal/consensus"
)

// byzantineWalks are the scenario portfolio's Byzantine explorations
// (internal/scenario/portfolio.go) over ordered delivery: the malformed
// flood and the equivocating fork, each replayed to a few steps short of
// its planted violation, and the out-of-turn sender from the initial
// configuration, which stays safe.
func byzantineWalks() []chanInstance {
	byz := func(adv consensus.QSCAdversary) func() *consensus.Protocol {
		return func() *consensus.Protocol { return consensus.QSCWithByzantine(3, 2, 4, adv) }
	}
	malformed, fork := byz(consensus.QSCByzMalformed), byz(consensus.QSCByzFork)
	d0 := malformed().N // honest 0's rank-0 deliver move
	return []chanInstance{
		{name: "byz-malformed", build: malformed, inputs: []int{0, 1, 0},
			prefix: []int{2, 2, 2, 2, 2, 2, 0, 0, d0, 0, d0, 0}, depth: 3, violating: true},
		{name: "byz-out-of-turn", build: byz(consensus.QSCByzOutOfTurn), inputs: []int{0, 1, 0}, depth: 6},
		{name: "byz-fork", build: fork, inputs: []int{0, 1, 0},
			prefix: deliveryForkPrefix(fork()), depth: 5, violating: true},
	}
}

// TestRecycledChainsKeepSchedules: an expanded node goes back to a free
// list with its last released child, so every pending node's parent chain
// must survive until the node itself is released. With several workers a
// thief may hold a sibling while the owner releases, and with spilling on
// chains are read while other workers release nodes. Over the Byzantine
// walks and the forkable portfolio, at 1, 2 and 4 workers, unspilled and
// spilled at 4 nodes, every Report must equal the one-worker walk's in
// every field but Mem, and every violation's schedule must replay to a
// configuration with the same problem. Without Dedup a several-worker walk
// keeps its own violations, so their schedules are the ones read off its
// chains.
func TestRecycledChainsKeepSchedules(t *testing.T) {
	type walk struct {
		name      string
		f         Factory
		depth     int
		violating bool
	}
	var walks []walk
	for _, ci := range byzantineWalks() {
		walks = append(walks, walk{ci.name, ci.factory(), ci.depth, ci.violating})
	}
	for _, tc := range consensus.ForkablePortfolio() {
		walks = append(walks, walk{tc.Name, factoryFor(tc.Build, tc.Inputs), portfolioDepth(tc.Inputs), false})
	}
	walks = append(walks, walk{"broken", broken, 2, true})
	for _, wl := range walks {
		t.Run(wl.name, func(t *testing.T) {
			for _, dedup := range []bool{false, true} {
				opts := Options{MaxDepth: wl.depth, Dedup: dedup}
				oracle := run(t, wl.f, opts)
				if found := len(oracle.Violations) > 0; found != wl.violating {
					t.Fatalf("dedup=%v: violations %v, planted %v", dedup, oracle.Violations, wl.violating)
				}
				for _, spill := range []int{0, 4} {
					for _, wk := range []int{1, 2, 4} {
						po := opts
						po.Workers, po.SpillNodes = wk, spill
						if spill > 0 {
							po.SpillDir = t.TempDir()
						}
						rep := run(t, wl.f, po)
						if !reflect.DeepEqual(stripMem(rep), stripMem(oracle)) {
							t.Fatalf("%+v: report differs from the one-worker walk\none  %+v\nthis %+v", po, oracle, rep)
						}
						if wk == 1 && spill > 0 && oracle.Mem.PeakResident > int64(spill) && rep.Mem.SpilledBatches == 0 {
							t.Fatalf("%+v: frontier never spilled", po)
						}
						checkReplays(t, wl.f, rep)
					}
				}
			}
		})
	}
}

// checkReplays requires every violation's schedule to replay to a
// configuration where checkSafety reports the same problem.
func checkReplays(t *testing.T, f Factory, rep *Report) {
	t.Helper()
	for _, v := range rep.Violations {
		sys, err := replay(f, v.Schedule)
		if err != nil {
			t.Fatalf("violation %v: %v", v, err)
		}
		got := checkSafety(sys, sys.Inputs())
		sys.Close()
		if got != v.Problem {
			t.Fatalf("schedule %v replays to problem %q, reported %q", v.Schedule, got, v.Problem)
		}
	}
}
