package explore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// run is a one-line Exhaustive wrapper for the symmetry batteries.
func run(t *testing.T, f Factory, opts Options) *Report {
	t.Helper()
	rep, err := Exhaustive(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSymmetryDifferential is the soundness battery for the symmetry-reduced
// seen-state key: for the full forkable portfolio × dedup on/off × the walk
// at 0/1/2/4 workers and the replay oracle, the decided-value set must be
// byte-identical with symmetry on and off and no violation may appear or
// disappear, while DistinctStates (now counting symmetry orbits) never
// grows and stays invariant across explorers, worker counts, and dedup. Across the portfolio the orbit count must drop
// strictly on at least 3 rows — the quotient has to actually buy something.
func TestSymmetryDifferential(t *testing.T) {
	reduced := 0
	for _, tc := range consensus.ForkablePortfolio() {
		t.Run(tc.Name, func(t *testing.T) {
			f := factoryFor(tc.Build, tc.Inputs)
			depth := portfolioDepth(tc.Inputs)

			exact := run(t, f, Options{MaxDepth: depth, Dedup: true})
			if len(exact.Violations) != 0 {
				t.Fatalf("exact exploration found violations: %v", exact.Violations)
			}

			symDistinct := int64(-1)
			check := func(label string, rep *Report) {
				t.Helper()
				if !slices.Equal(rep.DecidedValues, exact.DecidedValues) {
					t.Fatalf("%s: decided values %v with symmetry, %v without",
						label, rep.DecidedValues, exact.DecidedValues)
				}
				if len(rep.Violations) != 0 {
					t.Fatalf("%s: symmetry introduced violations: %v", label, rep.Violations)
				}
				if rep.DistinctStates > exact.DistinctStates {
					t.Fatalf("%s: %d orbits exceed %d exact states",
						label, rep.DistinctStates, exact.DistinctStates)
				}
				if symDistinct < 0 {
					symDistinct = rep.DistinctStates
				} else if rep.DistinctStates != symDistinct {
					t.Fatalf("%s: orbit count %d not invariant (first run saw %d)",
						label, rep.DistinctStates, symDistinct)
				}
			}

			for _, dedup := range []bool{false, true} {
				for _, wk := range []int{0, 1, 2, 4} {
					o := Options{MaxDepth: depth, Workers: wk, Dedup: dedup, Symmetry: true}
					check(fmt.Sprintf("w=%d dedup=%v", wk, dedup), run(t, f, o))
				}
			}
			check("replay dedup=true",
				runReplay(t, f, Options{MaxDepth: depth, Dedup: true, Symmetry: true}))

			if symDistinct < exact.DistinctStates {
				reduced++
				t.Logf("orbits %d vs %d exact states", symDistinct, exact.DistinctStates)
			}
		})
	}
	if reduced < 3 {
		t.Fatalf("symmetry reduced DistinctStates on %d portfolio rows, want >= 3", reduced)
	}
}

// TestSymmetryReducesKnownRows pins strict orbit reductions on rows whose
// symmetry is structural: repeated inputs (the anonymous-process pattern of
// examples/anonymous) and dead-input states (max-registers past its
// announcement), so a regression that silently falls back to the exact key
// fails loudly rather than shrinking the battery's aggregate count.
func TestSymmetryReducesKnownRows(t *testing.T) {
	cases := []struct {
		name   string
		build  func() *consensus.Protocol
		inputs []int
		depth  int
	}{
		{"intro-faa2-tas", func() *consensus.Protocol { return consensus.IntroFAA2TAS(3) }, []int{1, 0, 1}, 6},
		{"intro-dec-mul", func() *consensus.Protocol { return consensus.IntroDecMul(3) }, []int{0, 1, 0}, 6},
		{"increment-binary", func() *consensus.Protocol { return consensus.IncrementBinary(3) }, []int{1, 0, 1}, 6},
		{"max-registers", func() *consensus.Protocol { return consensus.MaxRegisters(3) }, []int{2, 0, 1}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := factoryFor(tc.build, tc.inputs)
			exact := run(t, f, Options{MaxDepth: tc.depth, Dedup: true})
			sym := run(t, f, Options{MaxDepth: tc.depth, Dedup: true, Symmetry: true})
			if !slices.Equal(sym.DecidedValues, exact.DecidedValues) {
				t.Fatalf("decided values %v with symmetry, %v without", sym.DecidedValues, exact.DecidedValues)
			}
			if sym.DistinctStates >= exact.DistinctStates {
				t.Fatalf("orbits %d did not drop below %d exact states", sym.DistinctStates, exact.DistinctStates)
			}
			if sym.States > exact.States {
				t.Fatalf("symmetry expanded %d states, exact %d", sym.States, exact.States)
			}
		})
	}
}

// TestSymmetryCatchesBrokenProtocol: pruning up to symmetry must not lose a
// planted violation — the orbit representative's subtree contains an
// equivalent witness.
func TestSymmetryCatchesBrokenProtocol(t *testing.T) {
	broken := func() (*sim.System, error) {
		inputs := []int{0, 1}
		steppers := make([]sim.Stepper, len(inputs))
		for i, in := range inputs {
			steppers[i] = &disagreeStepper{input: in}
		}
		return sim.NewSystemSteppers(machine.New(machine.SetReadWrite, 1), inputs, steppers), nil
	}
	for _, wk := range []int{0, 4} {
		rep := run(t, broken, Options{Workers: wk, Dedup: true, Symmetry: true})
		if len(rep.Violations) == 0 {
			t.Fatalf("workers=%d: symmetric exploration missed the agreement violation", wk)
		}
	}
}

// disagreeStepper reads once and decides its own input — an agreement
// violation whenever inputs differ — as an explicit SymKeyer stepper, so
// the symmetric key path (not the body fallback) is what must catch it.
type disagreeStepper struct {
	input int
	done  bool
}

func (s *disagreeStepper) Poise() *sim.OpInfo {
	if s.done {
		return nil
	}
	return &readLoc0
}

func (s *disagreeStepper) Resume(machine.Value) bool {
	s.done = true
	return true
}

func (s *disagreeStepper) Outcome() (bool, int, error) { return s.done, s.input, nil }
func (s *disagreeStepper) Halt()                       {}

func (s *disagreeStepper) ForkInto(sim.Stepper) sim.Stepper {
	f := *s
	return &f
}

func (s *disagreeStepper) StateKey() uint64 { return machine.Mix64(uint64(s.input) ^ 0x6469) }

func (s *disagreeStepper) SymStateKey(relabel func(int) int) uint64 {
	return machine.Mix64(s.StateKey() ^ uint64(relabel(0)))
}

// symFuzzStepper lifts fuzzStepper into the symmetric key world: all
// processes of one system share a single program (uniform code, so the
// process-permutation quotient is sound) and the key folds every program
// location through the relabeling (the full future-reference set).
type symFuzzStepper struct {
	fuzzStepper
}

func (s *symFuzzStepper) ForkInto(sim.Stepper) sim.Stepper {
	f := *s
	return &f
}

func (s *symFuzzStepper) SymStateKey(relabel func(int) int) uint64 {
	h := s.StateKey()
	for _, op := range s.prog {
		h = machine.Mix64(h ^ uint64(relabel(op.Loc)))
	}
	return h
}

// TestSymmetryFuzzSharedPrograms: seeded random shared-program systems —
// data-dependent control flow, random worker counts — where symmetry must
// preserve the decided set and the violation-free verdict while never
// increasing the orbit count. This is the over-merge hunter: a bogus merge
// of inequivalent states is overwhelmingly likely to perturb the
// worker-count invariance of DistinctStates or the decided set somewhere in 40
// irregular state graphs.
func TestSymmetryFuzzSharedPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for iter := 0; iter < 40; iter++ {
		n := 2 + rng.Intn(3)
		locs := 1 + rng.Intn(3)
		plen := 3 + rng.Intn(4)
		prog := make([]sim.OpInfo, plen)
		for i := range prog {
			prog[i] = randFuzzOp(rng, locs)
		}
		f := func() (*sim.System, error) {
			steppers := make([]sim.Stepper, n)
			for p := range steppers {
				steppers[p] = &symFuzzStepper{fuzzStepper{prog: prog}}
			}
			return sim.NewSystemSteppers(machine.New(fuzzSet, locs), make([]int, n), steppers), nil
		}
		depth := 4 + rng.Intn(2)
		wk := 1 + rng.Intn(4)
		t.Run(fmt.Sprintf("iter%02d-n%d-locs%d-depth%d", iter, n, locs, depth), func(t *testing.T) {
			exact := run(t, f, Options{MaxDepth: depth, Dedup: true})
			symSeq := run(t, f, Options{MaxDepth: depth, Dedup: true, Symmetry: true})
			symPar := run(t, f, Options{MaxDepth: depth, Workers: wk, Dedup: true, Symmetry: true})
			if !slices.Equal(symSeq.DecidedValues, exact.DecidedValues) {
				t.Fatalf("decided values %v with symmetry, %v without", symSeq.DecidedValues, exact.DecidedValues)
			}
			if len(symSeq.Violations) != len(exact.Violations) {
				t.Fatalf("violation count changed under symmetry: %d vs %d", len(symSeq.Violations), len(exact.Violations))
			}
			if symSeq.DistinctStates > exact.DistinctStates {
				t.Fatalf("orbits %d exceed %d exact states", symSeq.DistinctStates, exact.DistinctStates)
			}
			if !reflect.DeepEqual(stripMem(symPar), stripMem(symSeq)) {
				t.Fatalf("workers=%d symmetric run diverged:\none  %+v\nmany %+v", wk, symSeq, symPar)
			}
		})
	}
}
