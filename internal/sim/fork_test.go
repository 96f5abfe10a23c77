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

// TestForkBodyIndependence forks a Body-adapted (coroutine) system mid-run
// via result-replay and checks the fork and the original evolve
// independently to the same outcomes as an unforked run.
func TestForkBodyIndependence(t *testing.T) {
	sys := NewSystem(forkTestMem(), []int{0, 0, 0}, raceBody)
	defer sys.Close()
	for _, pid := range []int{0, 1, 2, 0, 1} {
		if _, err := sys.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	fk, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fk.Close()
	if fk.Steps() != sys.Steps() {
		t.Fatalf("fork steps = %d, want %d", fk.Steps(), sys.Steps())
	}
	if got, want := fk.Mem().Fingerprint(), sys.Mem().Fingerprint(); got != want {
		t.Fatalf("fork memory %q != original %q", got, want)
	}
	// Advance only the fork: the original's memory must not move.
	before := sys.Mem().Fingerprint()
	if _, err := fk.Step(0); err != nil {
		t.Fatal(err)
	}
	if sys.Mem().Fingerprint() != before {
		t.Fatal("stepping the fork mutated the original's memory")
	}
	// Both must still complete under round-robin with identical decisions to
	// a fresh replay of their respective schedules.
	if _, err := sys.Run(&RoundRobin{}, 10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := fk.Run(&RoundRobin{}, 10_000); err != nil {
		t.Fatal(err)
	}
	if len(sys.Decisions()) != 3 || len(fk.Decisions()) != 3 {
		t.Fatalf("undecided processes: orig %v fork %v", sys.Decisions(), fk.Decisions())
	}
}

// TestForkMatchesReplay: forking after a prefix and continuing must equal
// replaying prefix+continuation on a fresh system, step for step.
func TestForkMatchesReplay(t *testing.T) {
	prefix := []int{0, 1, 2, 0, 1, 2, 2}
	cont := []int{2, 0, 1, 0, 1, 2, 0, 1}

	sys := NewSystem(forkTestMem(), []int{0, 0, 0}, raceBody, WithTrace())
	defer sys.Close()
	for _, pid := range prefix {
		if _, err := sys.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	fk, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fk.Close()
	for _, pid := range cont {
		if _, err := fk.Step(pid); err != nil {
			t.Fatal(err)
		}
	}

	ref := NewSystem(forkTestMem(), []int{0, 0, 0}, raceBody, WithTrace())
	defer ref.Close()
	for _, pid := range append(append([]int{}, prefix...), cont...) {
		if _, err := ref.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := traceString(fk.Trace()), traceString(ref.Trace()); got != want {
		t.Fatalf("fork trace diverged from replay:\nfork   %s\nreplay %s", got, want)
	}
	if got, want := fk.Mem().Fingerprint(), ref.Mem().Fingerprint(); got != want {
		t.Fatalf("fork memory %q != replay memory %q", got, want)
	}
}

// TestForkGoroutineEngine: the legacy engine's steppers fork by
// result-replay too.
func TestForkGoroutineEngine(t *testing.T) {
	sys := newGoroutineSystem(forkTestMem(), []int{0, 0}, raceBody)
	defer sys.Close()
	for _, pid := range []int{0, 1, 0} {
		if _, err := sys.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	fk, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fk.Close()
	if _, err := fk.Run(&RoundRobin{}, 10_000); err != nil {
		t.Fatal(err)
	}
	if len(fk.Decisions()) != 2 {
		t.Fatalf("fork decisions: %v", fk.Decisions())
	}
}

// TestForkPreservesOutcomes: decided and crashed processes survive a fork as
// stubs with their status intact.
func TestForkPreservesOutcomes(t *testing.T) {
	sys := NewSystem(forkTestMem(), []int{0, 0, 0}, raceBody)
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

// TestForkNativeStepper: a system over Forker-implementing steppers forks
// natively; one over plain external steppers reports ErrNotForkable.
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
	// Body systems are not native but do fork (result-replay).
	bsys := NewSystem(forkTestMem(), []int{0, 0}, raceBody)
	defer bsys.Close()
	if bsys.ForksNatively() {
		t.Fatal("coroutine bodies should not report native forking")
	}
	if fk, err := bsys.Fork(); err != nil {
		t.Fatal(err)
	} else {
		fk.Close()
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

// TestForkLogOverflow: a process that outgrows the replay log stops being
// forkable instead of retaining unbounded history.
func TestForkLogOverflow(t *testing.T) {
	old := maxReplayLog
	maxReplayLog = 8
	defer func() { maxReplayLog = old }()
	spin := func(p *Proc) int {
		for i := 0; i < 100; i++ {
			p.Apply(0, machine.OpIncrement)
		}
		return 0
	}
	sys := NewSystem(forkTestMem(), []int{0}, spin)
	defer sys.Close()
	for i := 0; i < 20; i++ {
		if _, err := sys.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Fork(); !errors.Is(err, ErrNotForkable) {
		t.Fatalf("err = %v, want ErrNotForkable after log overflow", err)
	}
}

// clockBody branches on Clock(): its local state depends on when (in
// global steps) its instructions landed, not just on their results.
func clockBody(p *Proc) int {
	t := int64(0)
	for i := 0; i < 4; i++ {
		p.Apply(0, machine.OpIncrement)
		t += p.Clock()
	}
	return int(t % 2)
}

// TestForkReplaysClock: result-replay forking must reproduce the Clock()
// values the original body observed, so a clock-dependent body forks into
// the same local state — pinned by comparing the fork's continuation with a
// fresh replay of the same schedule. Clock-reading bodies are also
// withdrawn from state-keyed dedup.
func TestForkReplaysClock(t *testing.T) {
	sched := []int{0, 1, 1, 0, 1, 0}
	run := func(cont []int) map[int]int {
		sys := NewSystem(forkTestMem(), []int{0, 0}, clockBody)
		defer sys.Close()
		for _, pid := range sched {
			if _, err := sys.Step(pid); err != nil {
				t.Fatal(err)
			}
		}
		for _, pid := range cont {
			if _, err := sys.Step(pid); err != nil {
				t.Fatal(err)
			}
		}
		return sys.Decisions()
	}
	cont := []int{0, 1} // each process's fourth and final step
	want := run(cont)

	sys := NewSystem(forkTestMem(), []int{0, 0}, clockBody)
	defer sys.Close()
	for _, pid := range sched {
		if _, err := sys.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := sys.StateKey(); ok {
		t.Fatal("clock-reading body must be excluded from state keying")
	}
	fk, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fk.Close()
	if fk.Steps() != sys.Steps() {
		t.Fatalf("fork clock %d, want %d", fk.Steps(), sys.Steps())
	}
	for _, pid := range cont {
		if _, err := fk.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	got := fk.Decisions()
	for pid, d := range want {
		if g, ok := got[pid]; !ok || g != d {
			t.Fatalf("fork decisions %v, replay decisions %v", got, want)
		}
	}
}

// TestStateKeyMergesConvergentSchedules: two different schedules reaching
// observationally identical configurations produce equal state keys, and a
// diverging configuration does not.
func TestStateKeyMergesConvergentSchedules(t *testing.T) {
	build := func() *System {
		return NewSystem(forkTestMem(), []int{0, 0}, raceBody)
	}
	// raceBody's first two steps per process: inc(pid%2), read((pid+1)%2).
	// Schedules [0,1] and [1,0] perform inc(0) and inc(1) in either order and
	// leave both processes with an empty *result* history? No — each consumed
	// one result (nil from inc). Histories are equal, memory is equal, so the
	// keys must merge.
	a, b, c := build(), build(), build()
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
		t.Fatal("Body systems should be keyable")
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
