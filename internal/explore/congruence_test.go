package explore

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// keySignature renders what one step from a configuration shows of its
// future: the live set, the decisions and each live pid's successor key,
// or under symmetry, which quotients by process permutation, the decided
// values as a multiset, the live count and the successor keys as a sorted
// multiset.
func keySignature(sys *sim.System, live []int, succ []machine.Hash128, symmetric bool) string {
	var decided []int
	for pid := 0; pid < sys.N(); pid++ {
		if v, ok := sys.Decided(pid); ok {
			decided = append(decided, v)
		} else {
			decided = append(decided, -1)
		}
	}
	if !symmetric {
		return fmt.Sprint(live, decided, succ)
	}
	decided = slices.DeleteFunc(decided, func(v int) bool { return v < 0 })
	slices.Sort(decided)
	succ = slices.Clone(succ)
	slices.SortFunc(succ, func(a, b machine.Hash128) int {
		return cmp.Or(cmp.Compare(a.Hi, b.Hi), cmp.Compare(a.Lo, b.Lo))
	})
	return fmt.Sprint(decided, len(live), succ)
}

// congruenceWalk visits every configuration of in within its depth, once
// per key (again if reached at a smaller depth), and checks that the key is
// a congruence: configurations with one key have one signature. It returns
// the number of configurations keyed and the mismatches found.
func congruenceWalk(t *testing.T, in keyInstance, symmetric bool) (configs, mismatches int) {
	t.Helper()
	var sc sim.SymScratch
	key := func(sys *sim.System) machine.Hash128 {
		var h machine.Hash128
		var ok bool
		if symmetric {
			h, ok = sys.SymHash128(&sc)
		} else {
			h, ok = sys.StateHash128()
		}
		if !ok {
			t.Fatal("configuration without a key")
		}
		return h
	}
	type entry struct {
		sig   string
		depth int
	}
	seen := make(map[machine.Hash128]entry)
	root, err := in.f()
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	var rec func(sys *sim.System, k machine.Hash128, d int)
	rec = func(sys *sim.System, k machine.Hash128, d int) {
		configs++
		live := sys.AppendLive(nil)
		children := make([]*sim.System, len(live))
		succ := make([]machine.Hash128, len(live))
		for i, pid := range live {
			child, err := sys.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := child.Step(pid); err != nil {
				t.Fatal(err)
			}
			children[i], succ[i] = child, key(child)
		}
		sig := keySignature(sys, live, succ, symmetric)
		prev, hit := seen[k]
		if hit && prev.sig != sig {
			if mismatches++; mismatches <= 3 {
				t.Errorf("%s: one key %x, two signatures:\n%s\n%s", in.name, k, prev.sig, sig)
			}
		}
		expand := d < in.depth && (!hit || d < prev.depth)
		if !hit || d < prev.depth {
			seen[k] = entry{sig, d}
		}
		for i, child := range children {
			if expand {
				rec(child, succ[i], d+1)
			}
			child.Close()
		}
	}
	rec(root, key(root), 0)
	return configs, mismatches
}

// TestKeyCongruence checks that the explorer's dedup keys are sound, not
// only stable: two configurations with one key must have the same future,
// and a one-step check over every configuration of the walk implies it for
// every number of steps within the explored region, by induction. It walks
// the forkable portfolio two steps past the portfolio depth and MP.QSC
// under ordered delivery, under the exact key (StateHash128) and the
// symmetric key (SymHash128). A key that drops a field its stepper still
// reads merges configurations whose successors differ.
func TestKeyCongruence(t *testing.T) {
	insts := portfolioKeyInstances()
	for i := range insts {
		insts[i].depth += 2
	}
	insts = append(insts, qscKeyInstance(sim.Delivery{Mode: sim.DeliverOrdered}, 9))
	for _, symmetric := range []bool{false, true} {
		total := 0
		for _, in := range insts {
			n, bad := congruenceWalk(t, in, symmetric)
			total += n
			if bad > 0 {
				t.Errorf("%s (symmetric=%v): %d of %d configurations break congruence", in.name, symmetric, bad, n)
			}
		}
		t.Logf("symmetric=%v: %d configurations keyed", symmetric, total)
	}
}
