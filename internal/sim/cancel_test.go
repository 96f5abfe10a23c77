package sim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
)

// spinBody loops forever reading location 0 — a process that never decides,
// so only cancellation (or the step budget) can end a run over it.
func spinBody(p *Proc) int {
	for {
		p.Apply(0, machine.OpRead)
	}
}

// TestRunContextCancelMidRun: cancelling the context while the system is
// spinning must stop the run promptly with ctx.Err(), well before the step
// budget.
func TestRunContextCancelMidRun(t *testing.T) {
	mem := machine.New(machine.SetReadWrite, 1)
	sys := NewSystem(mem, []int{0, 0}, spinBody)
	defer sys.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := sys.RunContext(ctx, &RoundRobin{}, 1<<62)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (res=%v)", err, res)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestRunContextPreCancelled: an already-cancelled context stops the run
// before any step executes.
func TestRunContextPreCancelled(t *testing.T) {
	mem := machine.New(machine.SetReadWrite, 1)
	sys := NewSystem(mem, []int{0}, spinBody)
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx, &RoundRobin{}, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if sys.Steps() != 0 {
		t.Fatalf("pre-cancelled run took %d steps", sys.Steps())
	}
}

// TestRunContextFinishedRunUnaffected: a run that completes before any
// cancellation is byte-identical to an uncancellable Run.
func TestRunContextFinishedRunUnaffected(t *testing.T) {
	mk := func() *System {
		inputs := []int{3, 1, 2}
		steppers := make([]Stepper, len(inputs))
		for i, in := range inputs {
			steppers[i] = newCASStepper(in)
		}
		return NewSystemSteppers(machine.New(machine.SetCAS, 1), inputs, steppers)
	}
	plain := mk()
	defer plain.Close()
	want, err := plain.Run(&RoundRobin{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	ctxSys := mk()
	defer ctxSys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := ctxSys.RunContext(ctx, &RoundRobin{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("context run diverged: %v vs %v", got, want)
	}
}

// cancellingSched wraps a scheduler and cancels the context after a fixed
// number of Next calls — a deterministic mid-run cancellation, no sleeps.
type cancellingSched struct {
	inner  Scheduler
	after  int
	cancel func()
}

func (c *cancellingSched) Next(s *System) int {
	c.after--
	if c.after == 0 {
		c.cancel()
	}
	return c.inner.Next(s)
}

// TestRunContextShortBudgetObservesCancellation: a run whose MaxSteps is
// below the poll interval used to exhaust its budget without ever looking
// at the context again, so a stalled (never-deciding) schedule under a
// cancelled context reported a normal budget-exhausted result. Polling at
// min(interval, remaining-budget) boundaries must surface ctx.Err()
// instead.
func TestRunContextShortBudgetObservesCancellation(t *testing.T) {
	const budget = 100 // well below cancelCheckInterval
	mem := machine.New(machine.SetReadWrite, 1)
	sys := NewSystem(mem, []int{0, 0}, spinBody)
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched := &cancellingSched{inner: &RoundRobin{}, after: 10, cancel: cancel}
	res, err := sys.RunContext(ctx, sched, budget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled at the budget boundary, got err=%v res=%v", err, res)
	}
	if sys.Steps() != budget {
		t.Fatalf("run stopped after %d steps, want the full %d-step budget", sys.Steps(), budget)
	}
}

// TestRunContextCompletionBeatsCancellation: a run that finishes (every
// process decided) inside the final burst still returns its Result even if
// the context was cancelled meanwhile — completion is never retroactively
// reported as cancellation.
func TestRunContextCompletionBeatsCancellation(t *testing.T) {
	inputs := []int{2, 0, 1}
	steppers := make([]Stepper, len(inputs))
	for i, in := range inputs {
		steppers[i] = newCASStepper(in)
	}
	sys := NewSystemSteppers(machine.New(machine.SetCAS, 1), inputs, steppers)
	defer sys.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched := &cancellingSched{inner: &RoundRobin{}, after: 1, cancel: cancel}
	res, err := sys.RunContext(ctx, sched, 50)
	if err != nil {
		t.Fatalf("completed run reported %v", err)
	}
	if len(res.Decisions) != len(inputs) {
		t.Fatalf("decisions = %v, want all %d processes decided", res.Decisions, len(inputs))
	}
}

// TestRunBatchCancellation: cancelling a batch of never-deciding runs stops
// every worker promptly, reports ctx.Err() per job, and leaks no
// goroutines.
func TestRunBatchCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	jobs := make([]BatchJob, 16)
	for i := range jobs {
		jobs[i] = BatchJob{
			Make: func() (*System, error) {
				return NewSystem(machine.New(machine.SetReadWrite, 1), []int{0, 0}, spinBody), nil
			},
			Sched:    func() Scheduler { return &RoundRobin{} },
			MaxSteps: 1 << 62,
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := RunBatch(ctx, jobs, 4)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("batch cancellation took %v", elapsed)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: want context.Canceled, got %v", i, r.Err)
		}
	}
	// The worker pool must be fully joined: allow the runtime a moment to
	// retire exiting goroutines, then require the count back at baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}
