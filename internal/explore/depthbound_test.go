package explore

// This file pins the soundness of depth-bounded deduplication at the MaxDepth
// boundary: a configuration revisited with MORE remaining depth than its
// recorded visit had must be re-expanded, because the recorded visit's
// subtree was truncated shallower than the revisit's would be. The planted
// protocol below makes the deep visit happen FIRST in DFS order, hides a
// violation exactly in the extra depth the shallow revisit has, and fails
// if the (state, depth) claim rule — or the replay oracle sharing it —
// ever prunes on a bare key match, at any worker count.
//
// State graph (gate = pid 0, writer = pid 1; inputs both 0):
//
//	gate:   pc0 read loc0 -> pc2 if 1, else pc1; pc1 waits for loc0 = 1;
//	        pc2, pc3 read loc0; after pc3 it decides 99 — not an input, a
//	        planted validity violation.
//	writer: pc0 writes 1 to loc0; pc1 spins reading (constant state).
//
// The configuration X = (gate@pc2, writer@pc1, loc0=1) is first reached at
// depth 3 via [gate, writer, gate] — the gate subtree explores first — and
// again at depth 2 via [writer, gate]. With MaxDepth = 4 the violation
// (two more gate steps past X) is only reachable through the depth-2
// revisit: 2+2 = 4 <= MaxDepth but 3+2 = 5 > MaxDepth.

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

const (
	gateWaitPCs = 2 // pc0 branch + pc1 wait loop
	gateReadPCs = 2 // pc2, pc3
)

// gateStepper is the payload process.
type gateStepper struct {
	pc      int
	decided bool
}

func (g *gateStepper) Poise() *sim.OpInfo {
	if g.decided {
		return nil
	}
	return &readLoc0
}

func (g *gateStepper) Resume(res machine.Value) bool {
	open := machine.MustInt(res).Sign() != 0
	switch {
	case g.pc < gateWaitPCs: // branching / waiting on loc0
		if open {
			g.pc = gateWaitPCs
		} else {
			g.pc = 1 // wait loop: a genuine self-loop while loc0 stays 0
		}
	default:
		g.pc++
		if g.pc == gateWaitPCs+gateReadPCs {
			g.decided = true
		}
	}
	return g.decided
}

// Outcome decides 99 — deliberately not an input, so reaching the decision
// within the explored envelope is a validity violation.
func (g *gateStepper) Outcome() (bool, int, error)      { return g.decided, 99, nil }
func (g *gateStepper) Halt()                            {}
func (g *gateStepper) ForkInto(sim.Stepper) sim.Stepper { f := *g; return &f }
func (g *gateStepper) StateKey() uint64 {
	return machine.Mix64(uint64(g.pc) ^ 0x67617465)
}

// writerSpinStepper writes 1 to loc0, then spins reading it with constant
// local state.
type writerSpinStepper struct {
	wrote bool
}

// write1Loc0 is writerSpinStepper's write, shared and never written.
var write1Loc0 = sim.OpInfo{Loc: 0, Op: machine.OpWrite, Args: []machine.Value{machine.Int(1)}}

func (w *writerSpinStepper) Poise() *sim.OpInfo {
	if !w.wrote {
		return &write1Loc0
	}
	return &readLoc0
}

func (w *writerSpinStepper) Resume(machine.Value) bool {
	w.wrote = true
	return false
}

func (w *writerSpinStepper) Outcome() (bool, int, error)      { return false, 0, nil }
func (w *writerSpinStepper) Halt()                            {}
func (w *writerSpinStepper) ForkInto(sim.Stepper) sim.Stepper { f := *w; return &f }
func (w *writerSpinStepper) StateKey() uint64 {
	if w.wrote {
		return machine.Mix64(0x77737031)
	}
	return machine.Mix64(0x77737030)
}

func depthBoundFactory() (*sim.System, error) {
	mem := machine.New(machine.SetReadWrite, 1)
	return sim.NewSystemSteppers(mem, []int{0, 0},
		[]sim.Stepper{&gateStepper{}, &writerSpinStepper{}}), nil
}

// TestDedupDepthBoundaryRevisit: with dedup on, the exact (state, depth)
// claim rule must re-expand the shallow revisit and surface the planted
// violation, on one worker, on several, and in the replay oracle; a table
// that prunes on the bare key loses it. The no-dedup runs pin that the
// violation is genuinely in the envelope, and Deduped > 0 pins that the
// table did fire elsewhere (the wait/spin self-loops), so the test cannot
// pass vacuously.
func TestDedupDepthBoundaryRevisit(t *testing.T) {
	const maxDepth = 4
	for _, tc := range []struct {
		name    string
		explore func(context.Context, Factory, Options) (*Report, error)
		opts    Options
	}{
		{"fork-nodedup", Exhaustive, Options{MaxDepth: maxDepth}},
		{"fork-dedup", Exhaustive, Options{MaxDepth: maxDepth, Dedup: true}},
		{"replay-dedup", exhaustiveReplay, Options{MaxDepth: maxDepth, Dedup: true}},
		{"parallel-dedup", Exhaustive, Options{MaxDepth: maxDepth, Workers: 4, Dedup: true}},
		{"parallel-dedup-1w", Exhaustive, Options{MaxDepth: maxDepth, Workers: 1, Dedup: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := tc.explore(context.Background(), depthBoundFactory, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) == 0 {
				t.Fatalf("violation behind the depth-boundary revisit was lost (report %+v)", rep)
			}
			if tc.opts.Dedup && rep.Deduped == 0 {
				t.Fatal("dedup never fired: the revisit scenario did not materialize")
			}
		})
	}

	// One depth shallower the violation must be out of reach on every path —
	// pinning that the test really straddles the boundary.
	rep, err := Exhaustive(context.Background(), depthBoundFactory,
		Options{MaxDepth: maxDepth - 1, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violation reachable at depth %d; the boundary scenario is miscalibrated: %v",
			maxDepth-1, rep.Violations)
	}
}
