package sim

import (
	"errors"
	"testing"

	"repro/internal/machine"
)

// forkTestMem builds a two-location read/increment memory.
func forkTestMem() *machine.Memory {
	return machine.New(machine.NewInstrSet("t", machine.OpRead, machine.OpIncrement), 2)
}

// TestForkPreservesOutcomes: decided and crashed processes survive a fork as
// stubs with their status intact.
func TestForkPreservesOutcomes(t *testing.T) {
	sys := raceSystem(3)
	defer sys.Close()
	if _, err := sys.Run(Solo{PID: 0}, 10_000); err != nil { // 0 decides
		t.Fatal(err)
	}
	sys.Crash(1)
	fk, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fk.Close()
	d0, ok0 := sys.Decided(0)
	f0, fok0 := fk.Decided(0)
	if !ok0 || !fok0 || d0 != f0 {
		t.Fatalf("decision lost across fork: %v/%v vs %v/%v", d0, ok0, f0, fok0)
	}
	if fk.Live(0) || fk.Live(1) || !fk.Live(2) {
		t.Fatalf("liveness wrong in fork: %v", fk.LiveSet())
	}
}

// TestForkNativeStepper: systems over plain external steppers, and Body
// systems, report ErrNotForkable; ForksNatively says so up front.
func TestForkNativeStepper(t *testing.T) {
	mem := machine.New(machine.SetCAS, 1)
	// The test casStepper implements no Forker: Fork must fail cleanly.
	sys := NewSystemSteppers(mem, []int{0, 1},
		[]Stepper{newCASStepper(0), newCASStepper(1)})
	defer sys.Close()
	if sys.ForksNatively() {
		t.Fatal("plain test stepper should not report native forking")
	}
	if _, err := sys.Fork(); !errors.Is(err, ErrNotForkable) {
		t.Fatalf("Fork err = %v, want ErrNotForkable", err)
	}
	// The Body adapter runs processes but cannot fork them.
	bsys := NewSystem(forkTestMem(), []int{0, 0}, raceBody)
	defer bsys.Close()
	if bsys.ForksNatively() {
		t.Fatal("coroutine bodies should not report native forking")
	}
	if _, err := bsys.Fork(); !errors.Is(err, ErrNotForkable) {
		t.Fatalf("Body Fork err = %v, want ErrNotForkable", err)
	}
}

// TestForkClosed: forking a closed system fails with ErrClosed.
func TestForkClosed(t *testing.T) {
	sys := NewSystem(forkTestMem(), []int{0}, raceBody)
	sys.Close()
	if _, err := sys.Fork(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestStateKeyMergesConvergentSchedules: two different schedules reaching
// observationally identical configurations produce equal state keys, and a
// diverging configuration does not.
func TestStateKeyMergesConvergentSchedules(t *testing.T) {
	// Each race process's first step increments its own location. Schedules
	// [0,1] and [1,0] perform inc(0) and inc(1) in either order and leave
	// both processes one instruction in with equal memory, so the keys must
	// merge; one step alone is a different configuration.
	a, b, c := raceSystem(2), raceSystem(2), raceSystem(2)
	defer a.Close()
	defer b.Close()
	defer c.Close()
	for _, pid := range []int{0, 1} {
		if _, err := a.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	for _, pid := range []int{1, 0} {
		if _, err := b.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	ka, oka := a.StateKey()
	kb, okb := b.StateKey()
	if !oka || !okb {
		t.Fatal("keyed stepper systems should be keyable")
	}
	if ka != kb {
		t.Fatal("commuting schedules reached the same state but keys differ")
	}
	if _, err := c.Step(0); err != nil {
		t.Fatal(err)
	}
	kc, _ := c.StateKey()
	if kc == ka {
		t.Fatal("distinct states share a key")
	}
}
