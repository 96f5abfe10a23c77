package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/machine"
)

// casStepper is the one-location CAS consensus protocol written directly as
// a step-VM state machine: no Body, no coroutine, no goroutine. It doubles
// as the reference implementation for the native Stepper path.
type casStepper struct {
	input    int
	args     [2]machine.Value
	op       OpInfo // the CAS, its Args pointing into args
	decided  bool
	decision int
}

func newCASStepper(input int) *casStepper {
	c := &casStepper{
		input: input,
		args:  [2]machine.Value{machine.Word(0), machine.Word(int64(input + 1))},
	}
	c.op = OpInfo{Loc: 0, Op: machine.OpCompareAndSwap, Args: c.args[:]}
	return c
}

func (c *casStepper) Poise() *OpInfo {
	if c.decided {
		return nil
	}
	return &c.op
}

func (c *casStepper) Resume(res machine.Value) bool {
	x, ok := machine.AsInt64(res)
	if !ok {
		panic("casStepper: non-numeric CAS result")
	}
	if x == 0 {
		c.decision = c.input
	} else {
		c.decision = int(x) - 1
	}
	c.decided = true
	return true
}

func (c *casStepper) Outcome() (bool, int, error) { return c.decided, c.decision, nil }

func (c *casStepper) Halt() {}

// TestNativeStepperSystem runs hand-written steppers through the VM and
// checks they agree exactly like the Body-based protocol.
func TestNativeStepperSystem(t *testing.T) {
	inputs := []int{3, 1, 2}
	steppers := make([]Stepper, len(inputs))
	for i, in := range inputs {
		steppers[i] = newCASStepper(in)
	}
	mem := machine.New(machine.SetCAS, 1)
	sys := NewSystemSteppers(mem, inputs, steppers)
	defer sys.Close()
	res, err := sys.Run(&RoundRobin{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckConsensus(inputs); err != nil {
		t.Fatal(err)
	}
	if v, ok := res.AgreedValue(); !ok || v != 3 {
		t.Fatalf("agreed = %d/%v, want 3 (round-robin: process 0 first)", v, ok)
	}
	if len(res.Decisions) != 3 {
		t.Fatalf("decisions = %v", res.Decisions)
	}
}

// TestNativeStepperMatchesBody: the native stepper and the coroutine-adapted
// body must produce identical decisions under identical schedules.
func TestNativeStepperMatchesBody(t *testing.T) {
	inputs := []int{5, 6, 7, 8}
	for seed := int64(1); seed <= 20; seed++ {
		bodySys := newCASSystem(inputs)
		bodyRes, err := bodySys.Run(NewRandom(seed), 100)
		bodySys.Close()
		if err != nil {
			t.Fatal(err)
		}
		steppers := make([]Stepper, len(inputs))
		for i, in := range inputs {
			steppers[i] = newCASStepper(in)
		}
		stSys := NewSystemSteppers(machine.New(machine.SetCAS, 1), inputs, steppers)
		stRes, err := stSys.Run(NewRandom(seed), 100)
		stSys.Close()
		if err != nil {
			t.Fatal(err)
		}
		for pid, d := range bodyRes.Decisions {
			if stRes.Decisions[pid] != d {
				t.Fatalf("seed %d: body decided %v, stepper %v", seed, bodyRes.Decisions, stRes.Decisions)
			}
		}
	}
}

// TestRunBatch runs a seed sweep in parallel and checks every run matches
// its serial twin — batch execution must not perturb determinism.
func TestRunBatch(t *testing.T) {
	inputs := []int{4, 2, 0, 3}
	const runs = 64
	mk := func(seed int64) BatchJob {
		return BatchJob{
			Make:     func() (*System, error) { return newCASSystem(inputs), nil },
			Sched:    func() Scheduler { return NewRandom(seed) },
			MaxSteps: 1000,
		}
	}
	jobs := make([]BatchJob, runs)
	for i := range jobs {
		jobs[i] = mk(int64(i + 1))
	}
	results := RunBatch(context.Background(), jobs, 0)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %+v", i, r)
		}
		serialSys := newCASSystem(inputs)
		serial, err := serialSys.Run(NewRandom(int64(i+1)), 1000)
		serialSys.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(serial.Decisions) != fmt.Sprint(r.Result.Decisions) {
			t.Fatalf("seed %d: batch %v != serial %v", i+1, r.Result.Decisions, serial.Decisions)
		}
	}
}

// TestRunBatchPropagatesErrors: Make failures and run failures land in the
// right slots without disturbing other jobs.
func TestRunBatchPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := []BatchJob{
		{
			Make:     func() (*System, error) { return nil, boom },
			Sched:    func() Scheduler { return &RoundRobin{} },
			MaxSteps: 10,
		},
		{
			Make:     func() (*System, error) { return newCASSystem([]int{1, 2}), nil },
			Sched:    func() Scheduler { return &RoundRobin{} },
			MaxSteps: 10,
		},
	}
	results := RunBatch(context.Background(), jobs, 2)
	if !errors.Is(results[0].Err, boom) {
		t.Fatalf("job 0 error = %v", results[0].Err)
	}
	if results[1].Err != nil || len(results[1].Result.Decisions) != 2 {
		t.Fatalf("job 1 = %+v", results[1])
	}
}

// TestRunBatchWorkerInvariance is the seeding-determinism regression at the
// batch-runner layer: per-job results must be identical at every worker
// count, because each job's scheduler is built from the job's own seed —
// never from which worker executes it or in what order.
func TestRunBatchWorkerInvariance(t *testing.T) {
	inputs := []int{4, 2, 0, 3}
	const runs = 48
	mkJobs := func() []BatchJob {
		jobs := make([]BatchJob, runs)
		for i := range jobs {
			seed := int64(i + 1)
			jobs[i] = BatchJob{
				Make:     func() (*System, error) { return newCASSystem(inputs), nil },
				Sched:    func() Scheduler { return NewRandom(seed) },
				MaxSteps: 1000,
			}
		}
		return jobs
	}
	var base []BatchResult
	for _, workers := range []int{1, 3, 8} {
		results := RunBatch(context.Background(), mkJobs(), workers)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
		}
		if base == nil {
			base = results
			continue
		}
		for i := range results {
			got, want := results[i].Result, base[i].Result
			if got.Steps != want.Steps || fmt.Sprint(got.Decisions) != fmt.Sprint(want.Decisions) {
				t.Fatalf("workers=%d job %d: %+v, want %+v", workers, i, got, want)
			}
		}
	}
}
