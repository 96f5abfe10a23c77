package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = quietLog
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(context.Background())
	})
	return s, ts
}

func postJSON(t *testing.T, url string, req any, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return r.StatusCode
}

func TestServeSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out repro.Outcome
	// The solve result must equal a direct library call with the same seed.
	p, err := repro.Compile("T1.9", 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Solve(context.Background(), []int{3, 1, 4, 1, 2}, repro.Seed(7))
	if err != nil {
		t.Fatal(err)
	}
	var got SolveResponse
	code := postJSON(t, ts.URL+"/solve", SolveRequest{Row: "T1.9", Inputs: []int{3, 1, 4, 1, 2}, Seed: 7}, &got)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if got.Value != want.Value || got.Steps != want.Steps || got.Footprint != want.Footprint || got.MaxBits != want.MaxBits {
		t.Fatalf("served %+v, library %+v", got, want)
	}
	_ = out
}

func TestServeSolveErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"unknown row", SolveRequest{Row: "T9.99", Inputs: []int{0, 1}}, http.StatusNotFound},
		{"out-of-range input", SolveRequest{Row: "T1.10", Inputs: []int{7, 0, 1}}, http.StatusBadRequest},
		{"no inputs", SolveRequest{Row: "T1.10"}, http.StatusBadRequest},
		{"unknown field", map[string]any{"row": "T1.10", "inputs": []int{0, 1, 2}, "bogus": 1}, http.StatusBadRequest},
		{"negative buffer cap", SolveRequest{Row: "T1.6", Inputs: []int{0, 1, 2}, BufferCap: -1}, http.StatusBadRequest},
		{"negative values", SolveRequest{Row: "T1.12", Inputs: []int{0, 1, 2}, Values: -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var er ErrorResponse
		if code := postJSON(t, ts.URL+"/solve", tc.req, &er); code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, code, tc.want)
		}
		if er.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}
	// Step-budget exhaustion is 422.
	var er ErrorResponse
	if code := postJSON(t, ts.URL+"/solve", SolveRequest{Row: "T1.9", Inputs: []int{0, 1, 2}, MaxSteps: 2}, &er); code != http.StatusUnprocessableEntity {
		t.Errorf("budget exhaustion: HTTP %d, want 422 (%s)", code, er.Error)
	}
}

func TestServeBatchStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := BatchRequest{Row: "T1.10", Runs: []BatchRun{
		{Inputs: []int{2, 0, 1}, Seed: 1},
		{Inputs: []int{2, 0, 1}, Seed: 2},
		{Inputs: []int{2, 0, 1}, Seed: 3},
	}}
	body, _ := json.Marshal(req)
	r, err := http.Post(ts.URL+"/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	p, _ := repro.Compile("T1.10", 3)
	sc := bufio.NewScanner(r.Body)
	var lines int
	for sc.Scan() {
		var res BatchResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if res.Index != lines || res.Outcome == nil || res.Error != "" {
			t.Fatalf("line %d: %+v", lines, res)
		}
		want, err := p.Solve(context.Background(), []int{2, 0, 1}, repro.Seed(res.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome.Value != want.Value || res.Outcome.Steps != want.Steps {
			t.Fatalf("line %d: served %+v, library %+v", lines, res.Outcome, want)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("%d result lines, want 3", lines)
	}
}

// TestServeBatchClientDisconnect abandons a long streamed sweep mid-read:
// the server observes the disconnect through the request context, stops the
// sweep, and leaks nothing — the serving counterpart of the SolveSeq
// early-break hygiene test.
func TestServeBatchClientDisconnect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := runtime.NumGoroutine()

	runs := make([]BatchRun, 5000)
	for i := range runs {
		runs[i] = BatchRun{Inputs: []int{2, 0, 1}, Seed: int64(i + 1)}
	}
	body, _ := json.Marshal(BatchRequest{Row: "T1.10", Runs: runs})
	r, err := http.Post(ts.URL+"/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	// Read a few lines, then hang up with most of the sweep unserved.
	sc := bufio.NewScanner(r.Body)
	for i := 0; i < 3 && sc.Scan(); i++ {
	}
	r.Body.Close()

	waitGoroutines(t, before)
	// The server is still healthy and serving after the abandonment.
	var out SolveResponse
	if code := postJSON(t, ts.URL+"/solve", SolveRequest{Row: "T1.10", Inputs: []int{2, 0, 1}}, &out); code != http.StatusOK {
		t.Fatalf("solve after disconnect: HTTP %d", code)
	}
}

func TestServeVerifyJobLifecycleAndResultCache(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{ResultCachePath: filepath.Join(dir, "results")}
	s, ts := newTestServer(t, cfg)

	vreq := VerifyRequest{Row: "T1.10", Inputs: []int{0, 1, 2}, MaxDepth: 5}
	var vr VerifyResponse
	code := postJSON(t, ts.URL+"/verify", vreq, &vr)
	if code != http.StatusAccepted || vr.ID == "" || vr.State != JobQueued {
		t.Fatalf("verify: code=%d %+v", code, vr)
	}
	st := pollJob(t, ts.URL, vr.ID)
	if st.State != JobDone || st.Report == nil {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	if len(st.Report.Violations) != 0 {
		t.Fatalf("violations: %v", st.Report.Violations)
	}

	// Same envelope again: served from the result cache, no new job, and
	// byte-identical to the job's report.
	var vr2 VerifyResponse
	if code := postJSON(t, ts.URL+"/verify", vreq, &vr2); code != http.StatusOK || !vr2.Cached || vr2.Report == nil {
		t.Fatalf("repeat verify: code=%d %+v", code, vr2)
	}
	a, _ := json.Marshal(st.Report)
	b, _ := json.Marshal(vr2.Report)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached report differs:\n job   %s\n cache %s", a, b)
	}

	// A different envelope (symmetry on) is a distinct cache key: queued,
	// not served from cache, and its verdict-relevant fields agree.
	symReq := vreq
	symReq.Symmetry = true
	var vr3 VerifyResponse
	if code := postJSON(t, ts.URL+"/verify", symReq, &vr3); code != http.StatusAccepted {
		t.Fatalf("symmetry verify: code=%d %+v", code, vr3)
	}
	st3 := pollJob(t, ts.URL, vr3.ID)
	if st3.State != JobDone {
		t.Fatalf("symmetry job: %s (%s)", st3.State, st3.Error)
	}
	if fmt.Sprint(st3.Report.DecidedValues) != fmt.Sprint(st.Report.DecidedValues) {
		t.Fatalf("decided values differ across envelopes: %v vs %v",
			st3.Report.DecidedValues, st.Report.DecidedValues)
	}

	// The persistent cache survives a restart: a second server over the
	// same file answers inline.
	s.Drain(context.Background())
	_, ts2 := newTestServer(t, cfg)
	var vr4 VerifyResponse
	if code := postJSON(t, ts2.URL+"/verify", vreq, &vr4); code != http.StatusOK || !vr4.Cached {
		t.Fatalf("verify after restart: code=%d %+v", code, vr4)
	}
	c, _ := json.Marshal(vr4.Report)
	if !bytes.Equal(a, c) {
		t.Fatalf("report changed across restart:\n before %s\n after  %s", a, c)
	}
}

// TestServeVerifyCacheWorkerInvariant: the result-cache key leaves out
// workers, so a verdict computed by a several-worker job must be the
// verdict a one-worker request gets. POST /verify with workers=2, then the
// same envelope without workers: the cache hit must equal a fresh
// Protocol.Verify without Workers, Mem aside.
func TestServeVerifyCacheWorkerInvariant(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	vreq := VerifyRequest{Row: "T1.9", Inputs: []int{2, 0, 1}, MaxDepth: 10, Workers: 2}
	var vr VerifyResponse
	if code := postJSON(t, ts.URL+"/verify", vreq, &vr); code != http.StatusAccepted {
		t.Fatalf("verify: code=%d %+v", code, vr)
	}
	if st := pollJob(t, ts.URL, vr.ID); st.State != JobDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	vreq.Workers = 0
	var hit VerifyResponse
	if code := postJSON(t, ts.URL+"/verify", vreq, &hit); code != http.StatusOK || !hit.Cached || hit.Report == nil {
		t.Fatalf("repeat verify without workers: code=%d %+v", code, hit)
	}
	p, err := repro.Compile("T1.9", 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := p.Verify(context.Background(), vreq.Inputs, vreq.MaxDepth)
	if err != nil {
		t.Fatal(err)
	}
	hit.Report.Mem, fresh.Mem = repro.VerifyMemStats{}, repro.VerifyMemStats{}
	a, _ := json.Marshal(hit.Report)
	b, _ := json.Marshal(fresh)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached verdict of a workers=2 job differs from a one-worker Verify:\n cache %s\n fresh %s", a, b)
	}
}

// TestServeVerifyJobProgress pins the liveness surface of long verify
// jobs: GET /jobs/{id} carries states_visited, populated by the explorer's
// WithProgress callback once the exploration crosses the progress stride,
// and still present on the terminal status, bounded by the final report's
// state count.
func TestServeVerifyJobProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// The message-passing QSC row at depth 16 expands tens of thousands of
	// configurations — comfortably past the ~4096-state progress stride.
	var vr VerifyResponse
	code := postJSON(t, ts.URL+"/verify", VerifyRequest{Row: "MP.QSC", Inputs: []int{1, 0, 1}, MaxDepth: 16}, &vr)
	if code != http.StatusAccepted {
		t.Fatalf("verify: HTTP %d", code)
	}
	st := pollJob(t, ts.URL, vr.ID)
	if st.State != JobDone || st.Report == nil {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	if st.StatesVisited < 4096 {
		t.Fatalf("states_visited = %d after a %d-state exploration, want at least one progress stride",
			st.StatesVisited, st.Report.States)
	}
	if st.StatesVisited > st.Report.States {
		t.Fatalf("states_visited = %d exceeds the report's %d states", st.StatesVisited, st.Report.States)
	}
}

func pollJob(t *testing.T, base, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		switch st.State {
		case JobDone, JobFailed, JobCancelled:
			return &st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job not terminal in time")
	return nil
}

func TestServeVerifyValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Bad rows, bad table modes and every bound Verify would refuse fail
	// synchronously, before any job exists. A negative depth once ran as
	// an unbounded exploration, cached under its own key beside depth 0,
	// and an unbounded depth on a row that is not wait-free was queued
	// only to fail.
	in := []int{0, 1, 2}
	cases := []struct {
		name string
		req  VerifyRequest
		want int
	}{
		{"unknown row", VerifyRequest{Row: "T9.99", Inputs: []int{0, 1}, MaxDepth: 3}, http.StatusNotFound},
		{"bad table mode", VerifyRequest{Row: "T1.10", Inputs: in, MaxDepth: 3, Table: "zip"}, http.StatusBadRequest},
		{"negative max_depth", VerifyRequest{Row: "T1.10", Inputs: in, MaxDepth: -1}, http.StatusBadRequest},
		{"negative max_runs", VerifyRequest{Row: "T1.10", Inputs: in, MaxDepth: 3, MaxRuns: -1}, http.StatusBadRequest},
		{"negative solo_budget", VerifyRequest{Row: "T1.10", Inputs: in, MaxDepth: 3, SoloBudget: -1}, http.StatusBadRequest},
		{"negative table_bytes", VerifyRequest{Row: "T1.10", Inputs: in, MaxDepth: 3, Table: "compact", TableBytes: -1}, http.StatusBadRequest},
		{"negative workers", VerifyRequest{Row: "T1.10", Inputs: in, MaxDepth: 3, Workers: -1}, http.StatusBadRequest},
		{"unbounded depth, not wait-free", VerifyRequest{Row: "T1.9", Inputs: in, MaxDepth: 0}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var er ErrorResponse
		if code := postJSON(t, ts.URL+"/verify", tc.req, &er); code != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%s)", tc.name, code, tc.want, er.Error)
		}
	}
	if _, queued, _, _, _ := s.jobs.stats(); queued != 0 {
		t.Errorf("%d jobs queued for rejected requests, want 0", queued)
	}
	// Unknown job id.
	r, err := http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d", r.StatusCode)
	}
	// Depth 0 stays valid on a wait-free row.
	var vr VerifyResponse
	if code := postJSON(t, ts.URL+"/verify", VerifyRequest{Row: "T1.10", Inputs: in}, &vr); code != http.StatusAccepted {
		t.Errorf("T1.10 depth 0: HTTP %d, want 202", code)
	}
}

func TestServeJobCancellation(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 8})
	// A deep exploration that takes long enough to cancel mid-flight.
	var vr VerifyResponse
	code := postJSON(t, ts.URL+"/verify", VerifyRequest{Row: "T1.9", Inputs: []int{0, 1, 2}, MaxDepth: 12}, &vr)
	if code != http.StatusAccepted {
		t.Fatalf("verify: HTTP %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+vr.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del JobStatus
	if err := json.NewDecoder(r.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	st := pollJob(t, ts.URL, vr.ID)
	if st.State != JobCancelled && st.State != JobDone {
		t.Fatalf("after DELETE: state %s", st.State)
	}
	if st.State == JobCancelled && st.Error == "" {
		t.Fatal("cancelled job carries no attributed error")
	}
}

func TestServeStatusHealthzMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Generate some traffic so the counters are nonzero.
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/solve", SolveRequest{Row: "T1.10", Inputs: []int{2, 0, 1}, Seed: int64(i + 1)}, nil)
	}
	var vr VerifyResponse
	postJSON(t, ts.URL+"/verify", VerifyRequest{Row: "T1.10", Inputs: []int{0, 1, 2}, MaxDepth: 4}, &vr)
	pollJob(t, ts.URL, vr.ID)

	var status StatusResponse
	r, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if status.HandleCache.Misses < 1 || status.JobsDoneTotal < 1 || status.QueueCapacity < 1 {
		t.Fatalf("status: %+v", status)
	}
	if status.HandleCache.Hits < 2 {
		t.Fatalf("repeated solves did not hit the handle cache: %+v", status.HandleCache)
	}

	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", r.StatusCode)
	}

	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := io.ReadAll(r.Body)
	r.Body.Close()
	body := string(buf)
	for _, series := range []string{
		"reprod_requests_total{handler=\"solve\",code=\"200\"}",
		"reprod_request_duration_seconds_bucket{handler=\"solve\",le=\"+Inf\"}",
		"reprod_handle_cache_hits_total",
		"reprod_result_cache_misses_total",
		"reprod_result_cache_compacted_total",
		"reprod_queue_depth",
		"reprod_jobs_total{state=\"done\"}",
		"reprod_verify_mem_peak_frontier",
		"reprod_uptime_seconds",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	// Draining flips healthz to 503 and refuses new jobs.
	s.Drain(context.Background())
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", r.StatusCode)
	}
	var er ErrorResponse
	if code := postJSON(t, ts.URL+"/verify", VerifyRequest{Row: "T1.10", Inputs: []int{0, 1, 2}, MaxDepth: 3}, &er); code != http.StatusServiceUnavailable {
		t.Fatalf("verify while draining: HTTP %d (%s)", code, er.Error)
	}
}

// TestServeDrainCompletesInFlightJobs is the HTTP-level no-job-lost
// contract: SIGTERM (modeled as ctx cancellation through Server.Drain)
// with queued verify work completes that work before the drain returns.
func TestServeDrainCompletesInFlightJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	var ids []string
	for i := 0; i < 3; i++ {
		var vr VerifyResponse
		code := postJSON(t, ts.URL+"/verify", VerifyRequest{Row: "T1.9", Inputs: []int{0, 1, 2}, MaxDepth: 7 + i}, &vr)
		if code != http.StatusAccepted {
			t.Fatalf("verify %d: HTTP %d", i, code)
		}
		ids = append(ids, vr.ID)
	}
	if !s.Drain(context.Background()) {
		t.Fatal("drain was not clean")
	}
	for _, id := range ids {
		st := pollJob(t, ts.URL, id)
		if st.State != JobDone || st.Report == nil {
			t.Fatalf("job %s ended %s after drain, want done with report", id, st.State)
		}
	}
}

// TestServeRunSIGTERMDrain exercises the real Run path end to end: a live
// listener, queued work, context cancellation (what SIGTERM triggers in
// cmd/reprod), and a nil return for the clean drain.
func TestServeRunSIGTERMDrain(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", Workers: 1, QueueDepth: 8, Logf: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	// Wait for the listener.
	deadline := time.Now().Add(5 * time.Second)
	base := ""
	for time.Now().Before(deadline) {
		if addr := s.Addr(); !strings.HasSuffix(addr, ":0") {
			base = "http://" + addr
			r, err := http.Get(base + "/healthz")
			if err == nil {
				r.Body.Close()
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if base == "" {
		t.Fatal("server never came up")
	}
	var vr VerifyResponse
	if code := postJSON(t, base+"/verify", VerifyRequest{Row: "T1.10", Inputs: []int{0, 1, 2}, MaxDepth: 6}, &vr); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("verify: HTTP %d", code)
	}
	cancel() // SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run never returned after cancellation")
	}
	// The drained job is terminal and done (never lost): its report was
	// computed before shutdown; the server is gone, so assert via the job
	// queue directly.
	if vr.ID != "" {
		j, ok := s.jobs.lookup(vr.ID)
		if !ok {
			t.Fatalf("job %s forgotten during drain", vr.ID)
		}
		if state, rep, _, _, _, _ := j.snapshot(); state != JobDone || rep == nil {
			t.Fatalf("job %s ended %s after drain, want done", vr.ID, state)
		}
	}
}
