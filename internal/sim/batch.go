package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel batch runner: many independent (system, schedule)
// configurations executed across worker goroutines. Each configuration gets
// its own System and Scheduler, so runs share nothing and the step-VM's
// single-threaded speed multiplies across cores — the way large schedule
// sweeps (seed sweeps, adversarial scenario sampling, hierarchy tables) are
// meant to be driven.

// BatchJob describes one independent run: a fresh system, a fresh scheduler,
// and a step budget. Make and Sched are called exactly once, inside the
// worker that executes the job, so they may allocate without synchronization.
type BatchJob struct {
	// Make builds the run's System. The runner closes it after the run.
	Make func() (*System, error)
	// Sched builds the run's Scheduler. Schedulers are stateful; sharing one
	// across runs would leak schedule state between them.
	Sched func() Scheduler
	// MaxSteps bounds the run.
	MaxSteps int64
	// Done, when non-nil, runs after the run finishes, just before the
	// runner closes the System — the last safe point to read statistics or
	// memory contents off it. Systems forked from a pooled snapshot are
	// recycled on Close, so pointers taken during Make (for example
	// sys.Mem()) may be rebuilt for an unrelated run by the time the batch
	// returns; capture what a result needs here instead. Not called when
	// Make fails.
	Done func(*System)
}

// BatchResult is the outcome of one batch job.
type BatchResult struct {
	// Result is the run's outcome; nil when Err is set before the run
	// produced one.
	Result *Result
	// Err is the job's failure: a Make error, a process failure, or a
	// consensus-run error.
	Err error
}

// RunBatch executes the jobs across workers goroutines (workers <= 0 means
// GOMAXPROCS) and returns per-job results, indexed like jobs. Job order within the result slice is deterministic; execution
// order is not, which is fine because jobs are fully isolated. Cancelling
// ctx stops the batch promptly: in-flight runs abort at their next
// cancellation poll and unstarted jobs are never built; both report
// ctx.Err() in their BatchResult. All workers are joined before RunBatch
// returns on every path, so cancellation leaks no goroutines.
func RunBatch(ctx context.Context, jobs []BatchJob, workers int) []BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]BatchResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = BatchResult{Err: err}
					continue
				}
				results[i] = runOne(ctx, jobs[i])
			}
		}()
	}
	wg.Wait()
	return results
}

func runOne(ctx context.Context, job BatchJob) BatchResult {
	sys, err := job.Make()
	if err != nil {
		return BatchResult{Err: err}
	}
	defer sys.Close()
	res, err := sys.RunContext(ctx, job.Sched(), job.MaxSteps)
	if job.Done != nil {
		job.Done(sys)
	}
	return BatchResult{Result: res, Err: err}
}
