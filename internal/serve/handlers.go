package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro"
)

// instrument wraps a handler with request counting and latency observation
// under a stable handler name.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := h(w, r)
		s.metrics.observe(name, code, time.Since(start))
	}
}

// writeJSON sends a JSON response and returns the status code for the
// instrumentation wrapper.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
	return code
}

// writeError maps an error onto the HTTP status space: malformed requests
// and invalid parameters are 400, unknown rows 404, exhausted budgets 422,
// shed load 503, cancelled clients 499 (nginx's convention — the client is
// gone, the code is for the metrics), everything else 500.
func writeError(w http.ResponseWriter, err error) int {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, repro.ErrBadInput):
		code = http.StatusBadRequest
	case errors.Is(err, repro.ErrUnknownRow):
		code = http.StatusNotFound
	case errors.Is(err, repro.ErrNoDecision):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = 499
	}
	return writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// decode parses a JSON request body, bounding it so a hostile client
// cannot balloon server memory.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", repro.ErrBadInput, err)
	}
	return nil
}

// handleSolve runs one schedule synchronously: the hot path, designed to be
// cheap enough for tens of thousands of requests per second — one handle
// cache lookup, one pristine-snapshot fork, one run.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) int {
	var req SolveRequest
	if err := decode(r, &req); err != nil {
		return writeError(w, err)
	}
	p, err := s.handles.get(HandleKey{Row: req.Row, N: len(req.Inputs), Values: req.Values, L: req.BufferCap})
	if err != nil {
		return writeError(w, err)
	}
	opts := make([]repro.SolveOption, 0, 2)
	if req.Seed != 0 {
		opts = append(opts, repro.Seed(req.Seed))
	}
	if req.MaxSteps != 0 {
		opts = append(opts, repro.MaxSteps(req.MaxSteps))
	}
	out, err := p.Solve(r.Context(), req.Inputs, opts...)
	if err != nil {
		return writeError(w, err)
	}
	return writeJSON(w, http.StatusOK, solveResponse(out))
}

func solveResponse(out *repro.Outcome) *SolveResponse {
	return &SolveResponse{Value: out.Value, Footprint: out.Footprint, Steps: out.Steps, MaxBits: out.MaxBits}
}

// handleBatch streams a sweep as NDJSON through SolveSeq: one live run at a
// time regardless of sweep length. The request context is threaded into the
// sweep, so a disconnecting client cancels the in-flight run and the
// iterator is abandoned mid-sweep — which leaks nothing (pinned by
// TestSolveSeqAbandonNoLeak).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req BatchRequest
	if err := decode(r, &req); err != nil {
		return writeError(w, err)
	}
	if len(req.Runs) == 0 {
		return writeError(w, fmt.Errorf("%w: batch with no runs", repro.ErrBadInput))
	}
	p, err := s.handles.get(HandleKey{Row: req.Row, N: len(req.Runs[0].Inputs), Values: req.Values, L: req.BufferCap})
	if err != nil {
		return writeError(w, err)
	}
	specs := make([]repro.RunSpec, len(req.Runs))
	for i, run := range req.Runs {
		maxSteps := run.MaxSteps
		if maxSteps == 0 {
			maxSteps = req.MaxSteps
		}
		specs[i] = repro.RunSpec{Inputs: run.Inputs, Seed: run.Seed, MaxSteps: maxSteps}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i, res := range p.SolveSeq(r.Context(), specs) {
		line := BatchResult{Index: i, Seed: res.Spec.Seed}
		if res.Err != nil {
			line.Error = res.Err.Error()
		} else {
			line.Outcome = solveResponse(res.Outcome)
		}
		if err := enc.Encode(line); err != nil {
			// The client is gone; breaking abandons the Seq2 mid-sweep,
			// which is exactly the hygiene case the leak test pins.
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	return http.StatusOK
}

// handleVerify admits an exhaustive exploration: answered inline on a
// result-cache hit, queued as an async job otherwise.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) int {
	var req VerifyRequest
	if err := decode(r, &req); err != nil {
		return writeError(w, err)
	}
	params := verifyParams{
		handle:     HandleKey{Row: req.Row, N: len(req.Inputs), Values: req.Values, L: req.BufferCap},
		inputs:     req.Inputs,
		maxDepth:   req.MaxDepth,
		maxRuns:    req.MaxRuns,
		soloBudget: req.SoloBudget,
		symmetry:   req.Symmetry,
		tableBytes: req.TableBytes,
		workers:    req.Workers,
	}
	if req.Table != "" {
		mode, err := repro.ParseTableMode(req.Table)
		if err != nil {
			return writeError(w, err)
		}
		params.table = mode
	}
	// Compile (or fetch) the handle now: it canonicalizes the cache key and
	// surfaces bad rows/domains as a synchronous 4xx instead of a failed job.
	p, err := s.handles.get(params.handle)
	if err != nil {
		return writeError(w, err)
	}
	if err := params.check(p); err != nil {
		return writeError(w, err)
	}
	key := params.cacheKey(p)
	if rep, ok := s.results.get(key); ok {
		return writeJSON(w, http.StatusOK, VerifyResponse{State: JobDone, Cached: true, Report: rep})
	}
	j, err := s.jobs.enqueue(params, key)
	if err != nil {
		return writeError(w, err)
	}
	return writeJSON(w, http.StatusAccepted, VerifyResponse{
		ID: j.id, State: JobQueued, StatusURL: "/jobs/" + j.id,
	})
}

// check refuses, before a job exists, what Verify refuses: negative
// bounds, which runVerify would otherwise drop as unset (or, for the
// depth, explore unbounded) while the result cache keyed the request apart
// from its zero-valued twin, an unbounded depth on a row that is not
// wait-free, and solo probes on a row that passes messages, both of which
// would be queued only to fail.
func (vp verifyParams) check(p *repro.Protocol) error {
	if vp.maxDepth < 0 || vp.maxRuns < 0 || vp.soloBudget < 0 || vp.tableBytes < 0 || vp.workers < 0 {
		return fmt.Errorf("%w: max_depth, max_runs, solo_budget, table_bytes and workers must not be negative", repro.ErrBadInput)
	}
	build := p.Row().Build
	if build == nil {
		return nil
	}
	if vp.maxDepth == 0 && !build(p.N()).WaitFree {
		return fmt.Errorf("%w: row %s is not wait-free; max_depth must be positive", repro.ErrBadInput, p.ID())
	}
	if vp.soloBudget > 0 && len(build(p.N()).Channels) > 0 {
		return fmt.Errorf("%w: row %s passes messages; solo_budget needs a shared-memory row", repro.ErrBadInput, p.ID())
	}
	return nil
}

// runVerify is the job-queue runner: it executes the exploration under the
// job's context and records the result in the persistent cache.
func (s *Server) runVerify(ctx context.Context, j *job) (*repro.VerifyReport, error) {
	p, err := s.handles.get(j.params.handle)
	if err != nil {
		return nil, err
	}
	opts := make([]repro.VerifyOption, 0, 7)
	// Liveness for long explorations: the explorer's periodic progress
	// callback lands in the job's atomic counter, which GET /jobs/{id}
	// reports as states_visited while the job runs.
	opts = append(opts, repro.WithProgress(func(states int64) { j.progress.Store(states) }))
	if j.params.maxRuns > 0 {
		opts = append(opts, repro.MaxRuns(j.params.maxRuns))
	}
	if j.params.soloBudget > 0 {
		opts = append(opts, repro.SoloBudget(j.params.soloBudget))
	}
	if j.params.symmetry {
		opts = append(opts, repro.WithSymmetry())
	}
	if j.params.table != repro.TableExact {
		opts = append(opts, repro.WithTable(j.params.table))
	}
	if j.params.tableBytes > 0 {
		opts = append(opts, repro.WithTableBytes(j.params.tableBytes))
	}
	if j.params.workers > 0 {
		opts = append(opts, repro.Workers(j.params.workers))
	}
	rep, err := p.Verify(ctx, j.params.inputs, j.params.maxDepth, opts...)
	if err != nil {
		return nil, err
	}
	s.metrics.setVerifyMem(rep.Mem)
	if err := s.results.put(j.cacheKey, rep); err != nil {
		s.logf("reprod: %v", err)
	}
	return rep, nil
}

// handleJobGet polls a job.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) int {
	j, ok := s.jobs.lookup(r.PathValue("id"))
	if !ok {
		return writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job"})
	}
	return writeJSON(w, http.StatusOK, jobStatus(j))
}

// handleJobDelete cancels a job (idempotent on terminal jobs).
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) int {
	id := r.PathValue("id")
	state, ok := s.jobs.cancelJob(id)
	if !ok {
		return writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job"})
	}
	if j, ok := s.jobs.lookup(id); ok {
		return writeJSON(w, http.StatusOK, jobStatus(j))
	}
	// Evicted between cancel and lookup; the cancel-time state stands.
	return writeJSON(w, http.StatusOK, JobStatus{ID: id, State: state})
}

func jobStatus(j *job) JobStatus {
	state, rep, err, created, started, finished := j.snapshot()
	st := JobStatus{
		ID: j.id, State: state, Report: rep, CacheKey: j.cacheKey,
		StatesVisited: j.progress.Load(),
		CreatedAt:     created.UTC().Format(time.RFC3339Nano),
	}
	if err != nil {
		st.Error = err.Error()
	}
	if !started.IsZero() {
		st.StartedAt = started.UTC().Format(time.RFC3339Nano)
	}
	if !finished.IsZero() {
		st.FinishedAt = finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// handleStatus reports the service's operational state as JSON.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) int {
	hh, hm, hn := s.handles.stats()
	rh, rm, rc, rcomp, rn := s.results.stats()
	depth, capacity := s.jobs.depth()
	running, queued, done, failed, cancelled := s.jobs.stats()
	return writeJSON(w, http.StatusOK, StatusResponse{
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		HandleCache:   CacheStats{Hits: hh, Misses: hm, Entries: hn},
		ResultCache:   ResultCacheStats{CacheStats: CacheStats{Hits: rh, Misses: rm, Entries: rn}, Corrupt: rc, Compacted: rcomp},
		QueueDepth:    depth, QueueCapacity: capacity,
		JobsRunning: running, JobsQueuedTotal: queued, JobsDoneTotal: done,
		JobsFailedTotal: failed, JobsCancelledTotal: cancelled,
		Draining: s.draining.Load(),
	})
}

// handleHealthz is the liveness probe: 200 while serving, 503 once the
// drain has begun so load balancers stop routing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return http.StatusServiceUnavailable
	}
	fmt.Fprintln(w, "ok")
	return http.StatusOK
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s)
	return http.StatusOK
}
