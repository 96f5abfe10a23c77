package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Job lifecycle: queued -> running -> {done, failed, cancelled}, or
// queued -> cancelled directly. Every accepted job reaches a terminal state
// — the queue never drops work silently, including across a graceful drain.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// ErrQueueFull reports a verify submission against a full job queue; the
// HTTP layer maps it to 503 so load shedding is explicit, never a silent
// drop.
var ErrQueueFull = errors.New("serve: verify queue full")

// ErrDraining reports a submission during graceful shutdown.
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// verifyParams carries one verify request through the queue.
type verifyParams struct {
	handle     HandleKey
	inputs     []int
	maxDepth   int
	maxRuns    int64
	soloBudget int64
	symmetry   bool
	table      repro.TableMode
	tableBytes int64
	workers    int // wall-clock only; not part of the result-cache key
}

// resultKeyGen is the result-cache key generation, the first coordinate of
// every key. It changes whenever the reports an unchanged request produces
// change, so records written by an older service miss instead of being
// served stale. Generation 1 keys carried no tag; generation 2 began when
// T1.1, T1.3, T1.5, T1.6 and T1.MA moved from coroutine Body code (now only
// test oracles) to forkable steppers, whose canonical state keys change
// those rows' States, Runs, Deduped and DistinctStates.
const resultKeyGen = 2

// cacheKey derives the persistent result-cache key: the key generation,
// the handle identity (via the public CacheKey accessor, which
// canonicalizes the value domain and buffer capacity) and every
// result-affecting exploration parameter.
// Workers and frontier spilling are deliberately excluded — one exploration
// walk with one claim rule makes every report field but Mem worker-count-
// and spill-invariant, so including them would only fragment the cache.
// Table mode and table budget are included: compacted tables can
// under-approximate (UnderApprox/FalseMergeProb differ by mode), and the
// bitstate false-merge bound depends on the budget via occupancy. The
// exact table ignores the budget, so it keys as tbytes=0.
func (vp verifyParams) cacheKey(p *repro.Protocol) string {
	tbytes := vp.tableBytes
	if vp.table == repro.TableExact {
		tbytes = 0
	}
	return fmt.Sprintf("gen=%d %s inputs=%v depth=%d runs=%d solo=%d sym=%t table=%s tbytes=%d",
		resultKeyGen, p.CacheKey(), vp.inputs, vp.maxDepth, vp.maxRuns, vp.soloBudget,
		vp.symmetry, vp.table, tbytes)
}

// job is one queued verification. Mutable fields are guarded by mu; done is
// closed exactly once, when the job reaches a terminal state.
type job struct {
	id       string
	params   verifyParams
	cacheKey string
	cancel   context.CancelFunc
	ctx      context.Context
	done     chan struct{}

	// progress holds the explorer's latest states-visited count, stored by
	// the runner's WithProgress callback (which fires on exploration worker
	// goroutines) and read lock-free by GET /jobs/{id} while the job runs.
	progress atomic.Int64

	mu       sync.Mutex
	state    string
	report   *repro.VerifyReport
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
}

// snapshot reads the job's externally visible state consistently.
func (j *job) snapshot() (state string, rep *repro.VerifyReport, err error, created, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.report, j.err, j.created, j.started, j.finished
}

// jobQueue is the bounded verify queue: a fixed worker pool draining a
// buffered channel, with per-job contexts derived from one base context so
// a hard stop cancels everything at once. retainFinished bounds the job
// table: terminal jobs beyond the bound are forgotten oldest-first, so a
// long-running service does not accumulate every job it ever ran.
type jobQueue struct {
	runner func(ctx context.Context, j *job) (*repro.VerifyReport, error)
	queue  chan *job
	wg     sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // terminal job ids, oldest first, for eviction
	nextID   int64
	draining bool
	running  int
	// cumulative terminal counters, for /metrics (the jobs map is bounded,
	// so it cannot serve as the historical record)
	totalQueued, totalDone, totalFailed, totalCancelled int64
}

const retainFinished = 1024

func newJobQueue(workers, depth int, runner func(context.Context, *job) (*repro.VerifyReport, error)) *jobQueue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &jobQueue{
		runner:     runner,
		queue:      make(chan *job, depth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

func (q *jobQueue) worker() {
	defer q.wg.Done()
	for j := range q.queue {
		q.run(j)
	}
}

func (q *jobQueue) run(j *job) {
	j.mu.Lock()
	if j.state != JobQueued {
		// Cancelled while queued; already terminal and its done channel
		// closed — nothing to run.
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	q.mu.Lock()
	q.running++
	q.mu.Unlock()

	rep, err := q.runner(j.ctx, j)

	j.mu.Lock()
	switch {
	case err == nil:
		j.state, j.report = JobDone, rep
	case j.ctx.Err() != nil && errors.Is(err, j.ctx.Err()):
		j.state, j.err = JobCancelled, err
	default:
		j.state, j.err = JobFailed, err
	}
	j.finished = time.Now()
	state := j.state
	close(j.done)
	j.mu.Unlock()
	j.cancel() // release the context's resources; the job is terminal

	q.mu.Lock()
	q.running--
	q.settle(j.id, state)
	q.mu.Unlock()
}

// settle records a terminal transition and evicts old finished jobs. Caller
// holds q.mu.
func (q *jobQueue) settle(id, state string) {
	switch state {
	case JobDone:
		q.totalDone++
	case JobFailed:
		q.totalFailed++
	case JobCancelled:
		q.totalCancelled++
	}
	q.finished = append(q.finished, id)
	for len(q.finished) > retainFinished {
		delete(q.jobs, q.finished[0])
		q.finished = q.finished[1:]
	}
}

// enqueue admits a job, or refuses with ErrQueueFull / ErrDraining.
func (q *jobQueue) enqueue(params verifyParams, cacheKey string) (*job, error) {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return nil, ErrDraining
	}
	q.nextID++
	id := fmt.Sprintf("j%d", q.nextID)
	ctx, cancel := context.WithCancel(q.baseCtx)
	j := &job{
		id: id, params: params, cacheKey: cacheKey,
		ctx: ctx, cancel: cancel,
		done: make(chan struct{}), state: JobQueued, created: time.Now(),
	}
	select {
	case q.queue <- j:
	default:
		q.nextID--
		q.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
	q.jobs[id] = j
	q.totalQueued++
	q.mu.Unlock()
	return j, nil
}

// lookup finds a job by id.
func (q *jobQueue) lookup(id string) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// cancelJob requests cancellation and reports the job's state after the
// request: a queued job turns terminal immediately (the worker will skip
// it), a running job gets its context cancelled and turns terminal when
// the explorer observes it, and a terminal job is left untouched.
func (q *jobQueue) cancelJob(id string) (string, bool) {
	j, ok := q.lookup(id)
	if !ok {
		return "", false
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		state := j.state
		close(j.done)
		j.mu.Unlock()
		j.cancel()
		q.mu.Lock()
		q.settle(id, state)
		q.mu.Unlock()
		return state, true
	case JobRunning:
		j.mu.Unlock()
		j.cancel()
		return JobRunning, true
	default:
		state := j.state
		j.mu.Unlock()
		return state, true
	}
}

// depth reports queued (not yet started) jobs; capacity the queue bound.
func (q *jobQueue) depth() (depth, capacity int) { return len(q.queue), cap(q.queue) }

// stats snapshots the queue counters for /status and /metrics.
func (q *jobQueue) stats() (running int, queued, done, failed, cancelled int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running, q.totalQueued, q.totalDone, q.totalFailed, q.totalCancelled
}

// drain performs the graceful-shutdown contract: stop admitting, let the
// workers finish every queued and running job, and — only if ctx expires
// first — cancel whatever is left so it terminates observably as
// cancelled. Either way every accepted job is terminal when drain returns;
// the return value reports whether the drain completed without resorting
// to cancellation.
func (q *jobQueue) drain(ctx context.Context) (clean bool) {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return false
	}
	q.draining = true
	q.mu.Unlock()
	close(q.queue)

	workersDone := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		return true
	case <-ctx.Done():
		// Deadline: cancel every outstanding job context; the explorer
		// observes cancellation at the next frontier poll, so the workers
		// finish promptly with the jobs marked cancelled.
		q.baseCancel()
		<-workersDone
		return false
	}
}
