package sim

import (
	"context"
	"sync"
	"testing"

	"repro/internal/machine"
)

// loopStepper is the minimal natively forking stepper for pool tests: read
// location 0 a fixed number of times, then decide 0. It implements
// ForkerInto so pooled forks rebuild it inside recycled storage.
type loopStepper struct {
	remaining int
	decided   bool
}

func (l *loopStepper) Poise() (OpInfo, bool) {
	if l.decided {
		return OpInfo{}, false
	}
	return OpInfo{Loc: 0, Op: machine.OpRead}, true
}

func (l *loopStepper) Resume(machine.Value) bool {
	l.remaining--
	if l.remaining <= 0 {
		l.decided = true
	}
	return l.decided
}

func (l *loopStepper) Outcome() (bool, int, error) { return l.decided, 0, nil }
func (l *loopStepper) Halt()                       {}

func (l *loopStepper) Fork() Stepper { f := *l; return &f }

func (l *loopStepper) ForkInto(prev Stepper) Stepper {
	p, ok := prev.(*loopStepper)
	if !ok {
		return l.Fork()
	}
	*p = *l
	return p
}

func newLoopSystem(n, steps int) *System {
	steppers := make([]Stepper, n)
	inputs := make([]int, n)
	for i := range steppers {
		steppers[i] = &loopStepper{remaining: steps}
	}
	return NewSystemSteppers(machine.New(machine.SetReadWrite, 1), inputs, steppers)
}

// TestForkPoolSteadyStateAllocs pins the pool's contract from its doc
// comment: once the pool is warm, a fork/step/close cycle — the explorer's
// inner rhythm — allocates nothing at all, from a shared pool or an owned
// one.
func TestForkPoolSteadyStateAllocs(t *testing.T) {
	for name, pool := range map[string]*Pool{"shared": new(Pool), "owned": NewOwnedPool()} {
		t.Run(name, func(t *testing.T) {
			root := newLoopSystem(3, 50)
			defer root.Close()
			root.SetPool(pool)

			cycle := func() {
				child, err := root.Fork()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := child.Step(1); err != nil {
					t.Fatal(err)
				}
				child.Close()
			}
			for i := 0; i < 3; i++ {
				cycle() // warm the pool: the first forks allocate their storage
			}
			if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
				t.Fatalf("steady-state fork/step/close cycle allocates %.1f times, want 0", avg)
			}
		})
	}
}

// TestRunStepAllocs pins the run loop's per-step cost at zero allocations:
// a warm RunContext under Random over a pooled fork allocates only the
// Result it returns, so a run of 3000 steps allocates exactly what a run of
// 30 does. The scheduler copies the system's live list into a reused
// buffer, and the loop builds no StepInfo.
func TestRunStepAllocs(t *testing.T) {
	ctx := context.Background()
	run := func(steps int) func() {
		root := newLoopSystem(3, steps)
		root.SetPool(new(Pool))
		t.Cleanup(root.Close)
		sched := NewRandom(1)
		return func() {
			child, err := root.Fork()
			if err != nil {
				t.Fatal(err)
			}
			res, err := child.RunContext(ctx, sched, 1<<20)
			if err != nil || len(res.Decisions) != 3 || res.Steps != int64(3*steps) {
				t.Fatalf("run: %v, %v", res, err)
			}
			child.Close()
		}
	}
	short, long := run(10), run(1000)
	for i := 0; i < 3; i++ {
		short() // warm the pools and the scheduler's buffer
		long()
	}
	perShort, perLong := testing.AllocsPerRun(50, short), testing.AllocsPerRun(50, long)
	if perLong != perShort {
		t.Fatalf("a 3000-step run allocates %.1f times, a 30-step run %.1f: steps allocate", perLong, perShort)
	}
}

// TestForkPoolWithoutForkerInto checks the pool still works — correctly, if
// not allocation-free — for steppers that only implement Forker, by making
// sure a recycled slot holding a foreign stepper type falls back cleanly.
func TestForkPoolWithoutForkerInto(t *testing.T) {
	root := newLoopSystem(2, 4)
	defer root.Close()
	root.SetPool(new(Pool))
	for i := 0; i < 5; i++ {
		child, err := root.Fork()
		if err != nil {
			t.Fatal(err)
		}
		for {
			live := child.AppendLive(nil)
			if len(live) == 0 {
				break
			}
			if _, err := child.Step(live[0]); err != nil {
				t.Fatal(err)
			}
		}
		child.Close()
	}
}

// TestPoolConcurrentForkClose hammers one shared pool from several
// goroutines forking the same root — the parallel explorer's pattern — so
// the race detector can see any unsynchronized reuse.
func TestPoolConcurrentForkClose(t *testing.T) {
	root := newLoopSystem(3, 20)
	defer root.Close()
	root.SetPool(new(Pool))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				child, err := root.Fork()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := child.Step(i % 3); err != nil {
					t.Error(err)
					return
				}
				child.Close()
			}
		}()
	}
	wg.Wait()
}
