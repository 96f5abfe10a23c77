package explore

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// The fingerprint golden file pins the values of both configuration
// fingerprints the explorer claims, StateHash128 (exact) and SymHash128
// (symmetric), over whole schedule trees. Tables, reports and the result
// cache's keys are built from these values, so a refactor of the state
// keys must leave every line unchanged. Regenerate (only for a deliberate
// change of the key values, which also bumps the result-cache key
// generation) with
//
//	go test ./internal/explore/ -run TestFingerprintGolden -update-fingerprint-golden
var updateFingerprintGolden = flag.Bool("update-fingerprint-golden", false, "rewrite testdata/fingerprints.golden")

const fingerprintGoldenFile = "testdata/fingerprints.golden"

// keyInstance is one system and walk depth of the key batteries.
type keyInstance struct {
	name  string
	f     Factory
	depth int
}

// qscKeyInstance is MP.QSC at n=3, t=2, two rounds under delivery d.
func qscKeyInstance(d sim.Delivery, depth int) keyInstance {
	f := func() (*sim.System, error) {
		return consensus.QSCConfig(3, 2, 2).NewSystem([]int{2, 0, 1}, sim.WithDelivery(d))
	}
	return keyInstance{"qsc-" + d.Mode.String(), f, depth}
}

// portfolioKeyInstances is every forkable protocol at the portfolio depth.
func portfolioKeyInstances() []keyInstance {
	var out []keyInstance
	for _, tc := range consensus.ForkablePortfolio() {
		out = append(out, keyInstance{tc.Name, factoryFor(tc.Build, tc.Inputs), portfolioDepth(tc.Inputs)})
	}
	return out
}

// treeWalk visits every configuration of f's schedule tree within depth
// steps, without deduplication, so what it visits does not depend on any
// key.
func treeWalk(t *testing.T, f Factory, depth int, visit func(sys *sim.System)) {
	t.Helper()
	root, err := f()
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var rec func(sys *sim.System, d int)
	rec = func(sys *sim.System, d int) {
		visit(sys)
		if d == depth {
			return
		}
		for _, pid := range sys.AppendLive(nil) {
			child, err := sys.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := child.Step(pid); err != nil {
				t.Fatal(err)
			}
			rec(child, d+1)
			child.Close()
		}
	}
	rec(root, 0)
}

// laneSum is an order-independent digest of a set of fingerprints: the
// wrapping sum of each lane, and how many were summed.
type laneSum struct {
	lo, hi uint64
	n      int
}

func (s *laneSum) add(h machine.Hash128, ok bool) {
	if ok {
		s.lo += h.Lo
		s.hi += h.Hi
		s.n++
	}
}

func (s laneSum) String() string { return fmt.Sprintf("%016x:%016x/%d", s.lo, s.hi, s.n) }

// TestFingerprintGolden walks every configuration of the forkable
// portfolio at the portfolio depth and of MP.QSC under ordered, reorder and
// lossy(1) delivery, and compares the configuration count and the lane
// sums of StateHash128 and of SymHash128 with the golden file.
func TestFingerprintGolden(t *testing.T) {
	insts := portfolioKeyInstances()
	insts = append(insts,
		qscKeyInstance(sim.Delivery{Mode: sim.DeliverOrdered}, 7),
		qscKeyInstance(sim.Delivery{Mode: sim.DeliverReorder}, 6),
		qscKeyInstance(sim.Delivery{Mode: sim.DeliverLossy, MaxDrops: 1}, 6),
	)
	var got strings.Builder
	var sc sim.SymScratch
	for _, in := range insts {
		var configs int
		var exact, sym laneSum
		treeWalk(t, in.f, in.depth, func(sys *sim.System) {
			configs++
			exact.add(sys.StateHash128())
			sym.add(sys.SymHash128(&sc))
		})
		fmt.Fprintf(&got, "%s depth=%d configs=%d exact=%v sym=%v\n", in.name, in.depth, configs, exact, sym)
	}
	if *updateFingerprintGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGoldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintGoldenFile)
	if err != nil {
		t.Fatalf("missing golden file %s: %v", fingerprintGoldenFile, err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, %s has %d", len(gl), fingerprintGoldenFile, len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
}
