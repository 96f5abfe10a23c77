package consensus

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestForkIntoAnyPrev pins the one fork contract every stepper implements:
// ForkInto(prev) returns the same copy whatever prev is — nil (a fresh
// fork), a stepper of a foreign type (a pool slot another protocol left),
// or a recycled stepper of the copy's own type (a pooled fork), which it
// must rebuild in place. At every poise point of a seeded run it forks the
// scheduled process all three ways. Each copy must poise the source's
// instruction and return its exact and symmetric StateKey (the latter where
// the stepper has one) without changing the source's; after the source takes its step,
// each copy resumed with the same result must still agree with it.
func TestForkIntoAnyPrev(t *testing.T) {
	for _, tc := range cowCases() {
		t.Run(tc.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				checkForkIntoAnyPrev(t, tc, seed)
			}
		})
	}
}

// forkIntoSteps bounds the seeded run each case is forked along.
const forkIntoSteps = 200

// foreignStepper is a prev no production stepper shares a type with.
type foreignStepper struct{}

// foreignRead is foreignStepper's instruction, shared and never written.
var foreignRead = sim.OpInfo{Op: machine.OpRead}

func (foreignStepper) Poise() *sim.OpInfo          { return &foreignRead }
func (foreignStepper) Resume(machine.Value) bool   { return false }
func (foreignStepper) Outcome() (bool, int, error) { return false, 0, nil }
func (foreignStepper) Halt()                       {}

func checkForkIntoAnyPrev(t *testing.T, tc cowCase, seed int64) {
	t.Helper()
	pr := tc.Build()
	steppers := pr.Steppers(tc.Inputs)
	sys := sim.NewSystemSteppers(pr.NewMemory(), tc.Inputs, steppers, tc.opts...)
	defer sys.Close()
	sched := sim.NewRandom(seed)
	// retired holds the copies of the previous poise point, a step ahead of
	// the source they were forked from: the recycled storage of this one.
	var retired []sim.Stepper
	for k := 0; k < forkIntoSteps; k++ {
		pid := sched.Next(sys)
		if pid < 0 {
			return
		}
		if pid >= len(steppers) {
			// A delivery branch of a channel system: no stepper moves.
			if _, err := sys.Step(pid); err != nil {
				t.Fatal(err)
			}
			continue
		}
		src := steppers[pid]
		fk, ok := src.(sim.Forker)
		if !ok {
			t.Fatalf("%T does not implement sim.Forker", src)
		}
		want := stepperView(src)
		var recycled sim.Stepper
		for i, r := range retired {
			if fmt.Sprintf("%T", r) == fmt.Sprintf("%T", src) {
				recycled = r
				retired = append(retired[:i], retired[i+1:]...)
				break
			}
		}
		if recycled == nil {
			// No same-typed copy left: recycle a fresh copy of a sibling
			// (or of the source itself), at its own state.
			recycled = steppers[(pid+1)%len(steppers)].(sim.Forker).ForkInto(nil)
			if fmt.Sprintf("%T", recycled) != fmt.Sprintf("%T", src) {
				recycled = fk.ForkInto(nil)
			}
		}
		names := [...]string{"nil", "foreign", "recycled"}
		copies := [...]sim.Stepper{fk.ForkInto(nil), fk.ForkInto(foreignStepper{}), fk.ForkInto(recycled)}
		if copies[2] != recycled {
			t.Fatalf("seed %d step %d: %T.ForkInto did not rebuild in the recycled stepper", seed, k, src)
		}
		if got := stepperView(src); got != want {
			t.Fatalf("seed %d step %d: forking changed the source\nbefore %s\nafter  %s", seed, k, want, got)
		}
		for i, c := range copies {
			if got := stepperView(c); got != want {
				t.Fatalf("seed %d step %d: ForkInto(%s) copy of %T\n got %s\nwant %s", seed, k, names[i], src, got, want)
			}
		}
		st, err := sys.Step(pid)
		if err != nil {
			t.Fatal(err)
		}
		want = stepperView(src)
		retired = retired[:0]
		for i, c := range copies {
			c.Resume(st.Result)
			if got := stepperView(c); got != want {
				t.Fatalf("seed %d step %d: ForkInto(%s) copy after %s\n got %s\nwant %s", seed, k, names[i], stepString(st), got, want)
			}
			retired = append(retired, c)
		}
	}
}

// stepperView renders what a stepper shows the system: its outcome once
// finished (the system keys a finished process by its outcome alone), and
// otherwise its poised instruction, its state key, and its symmetric key
// under a fixed relabeling when it has one.
func stepperView(st sim.Stepper) string {
	op := st.Poise()
	if op == nil {
		decided, decision, err := st.Outcome()
		return fmt.Sprintf("finished decided=%v decision=%d err=%v", decided, decision, err)
	}
	s := stepString(sim.StepInfo{Info: *op})
	k := st.(sim.StateKeyer)
	key, _ := k.StateKey(nil)
	s += fmt.Sprintf(" key=%x", key)
	if sym, ok := k.StateKey(func(loc int) int { return 7*loc + 3 }); ok {
		s += fmt.Sprintf(" sym=%x", sym)
	}
	return s
}
