package consensus

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// portedProtocols is the exported ForkablePortfolio under the test file's
// historical name.
func portedProtocols() []ForkableInstance {
	return ForkablePortfolio()
}

// twinOnlyInstances widen the Body-twin comparison past the portfolio's
// explorer-sized instances: more processes, other buffer capacities, the
// m-valued forms and the write(1) tracks. The explorer batteries skip them.
func twinOnlyInstances() []ForkableInstance {
	return []ForkableInstance{
		{"write1-tracks", func() *Protocol { return WriteOneTracks(3) }, []int{1, 2, 0}},
		{"tas-tracks-5", func() *Protocol { return TASTracks(5) }, []int{4, 1, 1, 0, 3}},
		{"registers-5", func() *Protocol { return Registers(5) }, []int{2, 4, 0, 1, 3}},
		{"registers-values", func() *Protocol { return RegistersValues(4, 6) }, []int{5, 0, 3, 3}},
		{"swap-5", func() *Protocol { return Swap(5) }, []int{1, 4, 2, 0, 3}},
		{"buffers-l1", func() *Protocol { return Buffered(4, 1) }, []int{3, 0, 2, 1}},
		{"buffers-l3", func() *Protocol { return Buffered(5, 3) }, []int{0, 4, 2, 1, 3}},
		{"buffers-values", func() *Protocol { return BufferedValues(4, 2, 3) }, []int{2, 0, 1, 2}},
		{"buffers-multi-assign-5", func() *Protocol { return BufferedMultiAssign(5, 2) }, []int{4, 3, 0, 1, 2}},
	}
}

func stepString(st sim.StepInfo) string {
	s := fmt.Sprintf("%d:%v(", st.PID, st.Info)
	for _, a := range st.Info.Args {
		if x, ok := machine.AsInt(a); ok {
			s += fmt.Sprintf("%v,", x)
		} else {
			s += fmt.Sprintf("%+v,", a)
		}
	}
	return s + fmt.Sprintf(")=%v", st.Result)
}

// TestSteppersMatchBodies pins the explicit state machines to their Body
// twins: under identical seeded schedules both runs must produce identical
// instruction traces (pid, op, location, arguments, result), identical
// decisions, and identical final memory — across a seed sweep.
func TestSteppersMatchBodies(t *testing.T) {
	for _, tc := range append(portedProtocols(), twinOnlyInstances()...) {
		t.Run(tc.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				pr := tc.Build()
				if pr.Steppers == nil {
					t.Fatal("protocol carries no steppers")
				}
				bodySys := sim.NewSystem(pr.NewMemory(), tc.Inputs, pr.Body, sim.WithTrace())
				stepSys := sim.NewSystemSteppers(pr.NewMemory(), tc.Inputs, pr.Steppers(tc.Inputs), sim.WithTrace())

				bres, berr := bodySys.Run(sim.NewRandom(seed), 500_000)
				sres, serr := stepSys.Run(sim.NewRandom(seed), 500_000)
				if berr != nil || serr != nil {
					t.Fatalf("seed %d: body err %v, stepper err %v", seed, berr, serr)
				}
				bt, st := bodySys.Trace(), stepSys.Trace()
				if len(bt) != len(st) {
					t.Fatalf("seed %d: trace lengths %d vs %d", seed, len(bt), len(st))
				}
				for i := range bt {
					if bt[i].PID != st[i].PID || bt[i].Info.Loc != st[i].Info.Loc ||
						bt[i].Info.Op != st[i].Info.Op || len(bt[i].Info.Args) != len(st[i].Info.Args) {
						t.Fatalf("seed %d step %d: body %s vs stepper %s",
							seed, i, stepString(bt[i]), stepString(st[i]))
					}
					for j := range bt[i].Info.Args {
						if !machine.EqualValues(bt[i].Info.Args[j], st[i].Info.Args[j]) {
							t.Fatalf("seed %d step %d arg %d: body %s vs stepper %s",
								seed, i, j, stepString(bt[i]), stepString(st[i]))
						}
					}
				}
				if fmt.Sprint(bres.Decisions) != fmt.Sprint(sres.Decisions) {
					t.Fatalf("seed %d: decisions %v vs %v", seed, bres.Decisions, sres.Decisions)
				}
				if bf, sf := bodySys.Mem().Fingerprint(), stepSys.Mem().Fingerprint(); bf != sf {
					t.Fatalf("seed %d: final memory %q vs %q", seed, bf, sf)
				}
				bodySys.Close()
				stepSys.Close()
			}
		})
	}
}

// TestSteppersForkNatively: every ported protocol builds a natively
// forkable system, and a mid-run fork continues to a correct decision.
func TestSteppersForkNatively(t *testing.T) {
	for _, tc := range portedProtocols() {
		t.Run(tc.Name, func(t *testing.T) {
			pr := tc.Build()
			sys, err := pr.NewSystem(tc.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if !sys.ForksNatively() {
				t.Fatal("ported protocol does not fork natively")
			}
			// Take a few steps, fork, and run both to completion.
			sched := sim.NewRandom(7)
			for i := 0; i < 5 && len(sys.LiveSet()) > 0; i++ {
				if _, err := sys.Step(sched.Next(sys)); err != nil {
					t.Fatal(err)
				}
			}
			fk, err := sys.Fork()
			if err != nil {
				t.Fatal(err)
			}
			defer fk.Close()
			for _, s := range []*sim.System{sys, fk} {
				res, err := s.Run(sim.NewRandom(11), 500_000)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.CheckConsensus(tc.Inputs); err != nil {
					t.Fatal(err)
				}
				if len(res.Undecided) > 0 {
					t.Fatalf("undecided: %v", res)
				}
			}
		})
	}
}

// TestStepperStateKeysDiverge: keys must reflect state — two systems driven
// down different schedules (with different memory) never share a key, while
// a fork shares its parent's key until one of them moves.
func TestStepperStateKeysDiverge(t *testing.T) {
	pr := MaxRegisters(3)
	inputs := []int{2, 0, 1}
	sys := pr.MustSystem(inputs)
	defer sys.Close()
	for _, pid := range []int{0, 1, 2, 0} {
		if _, err := sys.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	fk, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fk.Close()
	k1, ok1 := sys.StateKey()
	k2, ok2 := fk.StateKey()
	if !ok1 || !ok2 {
		t.Fatal("ported systems must be keyable")
	}
	if k1 != k2 {
		t.Fatal("fork does not share its parent's state key")
	}
	if _, err := fk.Step(1); err != nil {
		t.Fatal(err)
	}
	if k3, _ := fk.StateKey(); k3 == k1 {
		t.Fatal("state key unchanged after a step")
	}
}

// TestMaxRegForkIntoKeepsForkWrite: a stepper poised on the catch-up
// write-max shares the value it read, now its write's argument, with its
// forks, so recycling the original through ForkInto — which overwrites its
// storage in place — must leave the fork's poised argument untouched.
func TestMaxRegForkIntoKeepsForkWrite(t *testing.T) {
	const y = 5
	hi, lo := EncodePair(MaxRegPair{R: 2, X: 1}, y), EncodePair(MaxRegPair{R: 0, X: 1}, y)
	// driveToCatchUp runs the double collect with stable reads m1=a, m2=b,
	// a > b without deciding, which poises the catch-up write of a to m2.
	driveToCatchUp := func(a, b *big.Int) *maxRegStepper {
		s := newMaxRegStepper(1, y)
		for _, res := range []machine.Value{nil, new(big.Int).Set(a), new(big.Int).Set(b), new(big.Int).Set(a), new(big.Int).Set(b)} {
			if s.Resume(res) {
				t.Fatal("stepper decided on a catch-up collect")
			}
		}
		if s.pc != mrWrite {
			t.Fatalf("pc %d, want the catch-up write", s.pc)
		}
		return s
	}
	s := driveToCatchUp(hi, lo)
	fk := s.ForkInto(nil)
	other := driveToCatchUp(EncodePair(MaxRegPair{R: 3, X: 0}, y), EncodePair(MaxRegPair{R: 1, X: 0}, y))
	if got := other.ForkInto(s); got != s {
		t.Fatal("ForkInto did not recycle its argument")
	}
	op := fk.Poise()
	if op == nil || op.Loc != 1 || op.Op != machine.OpWriteMax {
		t.Fatalf("fork poised on %+v, want write-max to m2", op)
	}
	if got := machine.MustInt(op.Args[0]); got.Cmp(hi) != 0 {
		t.Fatalf("fork's catch-up write changed to %v after recycling the original, want %v", got, hi)
	}
}

// TestFinishedSteppersKey keys every portfolio stepper once it has
// finished. The system keys a finished process by its outcome and never
// asks its stepper, but a stepper's keys must still be safe to take: a
// multi-valued stepper that decides in its last round has retired its
// round stepper, and keying it used to dereference the nil round.
func TestFinishedSteppersKey(t *testing.T) {
	relabel := func(loc int) int { return loc + 1 }
	for _, tc := range ForkablePortfolio() {
		t.Run(tc.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				pr := tc.Build()
				steppers := pr.Steppers(tc.Inputs)
				sys := sim.NewSystemSteppers(pr.NewMemory(), tc.Inputs, steppers)
				if _, err := sys.Run(sim.NewRandom(seed), 100000); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for pid, st := range steppers {
					if st.Poise() != nil {
						t.Fatalf("seed %d: pid %d still poised after the run", seed, pid)
					}
					k := st.(sim.StateKeyer)
					a, _ := k.StateKey(nil)
					b, _ := k.StateKey(nil)
					if a != b {
						t.Fatalf("seed %d: pid %d's finished key is not stable: %x then %x", seed, pid, a, b)
					}
					k.StateKey(relabel)
				}
				sys.Close()
			}
		})
	}
}
