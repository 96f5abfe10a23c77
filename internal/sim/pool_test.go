package sim

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/internal/machine"
)

// loopStepper is the minimal natively forking stepper for pool tests: read
// location 0 a fixed number of times, then decide 0. Its ForkInto rebuilds
// over a recycled loopStepper, so pooled forks reuse the storage.
type loopStepper struct {
	remaining int
	decided   bool
}

// readLoc0 is every loopStepper's instruction: shared and never written,
// so Poise hands out a pointer to it without allocating.
var readLoc0 = OpInfo{Loc: 0, Op: machine.OpRead}

func (l *loopStepper) Poise() *OpInfo {
	if l.decided {
		return nil
	}
	return &readLoc0
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

func (l *loopStepper) ForkInto(prev Stepper) Stepper {
	p, ok := prev.(*loopStepper)
	if !ok {
		p = new(loopStepper)
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

// TestForkPoolForeignStepper checks that a pool shared by systems of two
// stepper types stays correct: a fork rebuilt in a recycled System whose
// slots hold the other type hands ForkInto a foreign prev, which must fall
// back to fresh storage, and the fork must run exactly like an unpooled one.
func TestForkPoolForeignStepper(t *testing.T) {
	roots := []*System{newLoopSystem(2, 4), raceSystem(2)}
	// runOut steps the lowest live process until none is left and returns
	// the decisions and the step count.
	runOut := func(sys *System) (map[int]int, int64) {
		for {
			live := sys.AppendLive(nil)
			if len(live) == 0 {
				return sys.Decisions(), sys.Steps()
			}
			if _, err := sys.Step(live[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	type outcome struct {
		decisions map[int]int
		steps     int64
	}
	want := make([]outcome, len(roots))
	pool := new(Pool)
	for i, root := range roots {
		defer root.Close()
		fk, err := root.Fork() // no pool yet: the reference run
		if err != nil {
			t.Fatal(err)
		}
		want[i].decisions, want[i].steps = runOut(fk)
		fk.Close()
		root.SetPool(pool)
	}
	var last *System
	for i := 0; i < 6; i++ {
		root := roots[i%2]
		child, err := root.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && child != last {
			t.Fatalf("fork %d did not reuse the System the last fork closed", i)
		}
		for pid, ps := range child.procs {
			if got, want := fmt.Sprintf("%T", ps.st), fmt.Sprintf("%T", root.procs[pid].st); got != want {
				t.Fatalf("fork %d: process %d runs a %s, its source a %s", i, pid, got, want)
			}
		}
		decisions, steps := runOut(child)
		if w := want[i%2]; steps != w.steps || !maps.Equal(decisions, w.decisions) {
			t.Fatalf("fork %d over a foreign slot: decided %v in %d steps, unpooled %v in %d",
				i, decisions, steps, w.decisions, w.steps)
		}
		child.Close()
		last = child
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
