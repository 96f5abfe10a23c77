package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
)

// serveRate is serve-mix's offered load in requests per second: about 40%
// of what one P serves of this mix on the reference host (about 6400
// requests per CPU-second), so a host running a third slower still keeps
// up.
// BENCHMARK.json records it; changing it changes the workload.
const serveRate = 2500

// The mix, as a pattern of 20 requests that is shuffled per seed and
// repeated, so every run offers exactly these shares.
const (
	mixSolve  = 16 // 80% POST /solve
	mixBatch  = 1  // 5% POST /solve/batch
	mixHit    = 2  // 10% POST /verify answered from the result cache
	mixMiss   = 1  // 5% POST /verify that runs a job, polled to its report
	batchRuns = 4
)

type reqKind int

const (
	kindSolve reqKind = iota
	kindBatch
	kindHit
	kindMiss
)

var kindNames = [...]string{"solve", "batch", "verify_hit", "verify_miss"}

// serveSolveRows are the rows /solve and /solve/batch draw from: the
// natively forking rows, whose runs cost microseconds, so the request
// path — not the step VM — is what this workload loads.
var serveSolveRows = []string{"T1.7", "T1.9", "T1.10", "T1.11", "T1.12", "T1.14"}

var serveSolveNs = []int{4, 6}

const (
	serveSolveCases = 256
	serveBatchCases = 16
	// missPoll is the pause between GET /jobs/{id} polls of a miss.
	missPoll = 200 * time.Microsecond
	// missRunsBase starts the max_runs values that make each miss a
	// distinct result-cache key. It is far above any run count of the
	// miss instances, so the cap never truncates and every miss has the
	// same report as its base instance.
	missRunsBase = 1 << 40
)

// verifyCase is a /verify instance with the report it must produce.
type verifyCase struct {
	req  serve.VerifyRequest
	want *repro.VerifyReport
}

// serveHitCases are prefilled during set-up and then answered from the
// result cache; serveMissCases run as a fresh job each time.
var (
	serveHitCases = []serve.VerifyRequest{
		{Row: "T1.9", MaxDepth: 8},
		{Row: "T1.12", MaxDepth: 8},
		{Row: "T1.7", MaxDepth: 8},
		{Row: "T1.11", MaxDepth: 7},
	}
	serveMissCases = []serve.VerifyRequest{
		{Row: "T1.9", MaxDepth: 4},
		{Row: "T1.12", MaxDepth: 4},
		{Row: "T1.7", MaxDepth: 4},
	}
)

const serveVerifyN = 3

type bodyCase struct {
	body []byte
	want []byte
}

// serveMix is the serve-mix workload: an in-process serve.Server on a
// loopback listener with a fresh on-disk result cache, driven by an open
// loop at serveRate over one connection.
type serveMix struct {
	srv    *serve.Server
	stop   context.CancelFunc
	ran    chan error
	base   string
	client *http.Client

	plan    []reqKind
	solves  []bodyCase
	batches []bodyCase
	hits    []verifyCase
	misses  []verifyCase
	missSeq atomic.Int64
	rotate  []int // per kind, a seeded offset into its cases

	mu       sync.Mutex
	jobTimes []jobTiming
}

// sender carries one request to the service and returns its status and
// body: over the loopback connection (serveMix.call), or straight into the
// server's handler (the layer probe).
type sender func(method, path string, body []byte) (int, []byte, error)

// jobTiming is one miss's job, from the GET /jobs/{id} timestamps.
type jobTiming struct{ wait, run time.Duration }

func setupServeMix(cfg config) (load, error) {
	r := rng(cfg.seed, 4)
	m := &serveMix{}
	for k, c := range []int{kindSolve: mixSolve, kindBatch: mixBatch, kindHit: mixHit, kindMiss: mixMiss} {
		for i := 0; i < c; i++ {
			m.plan = append(m.plan, reqKind(k))
		}
	}
	r.Shuffle(len(m.plan), func(i, j int) { m.plan[i], m.plan[j] = m.plan[j], m.plan[i] })
	m.rotate = []int{r.Intn(serveSolveCases), r.Intn(serveBatchCases), r.Intn(len(serveHitCases)), r.Intn(len(serveMissCases))}
	if err := m.buildCases(r); err != nil {
		return nil, err
	}
	if err := m.start(filepath.Join(cfg.tmp, fmt.Sprintf("results-%d.log", time.Now().UnixNano()))); err != nil {
		return nil, err
	}
	// Prefill: run every hit case once as a miss. The fresh report is
	// what every later cached answer must equal.
	for i := range m.hits {
		rep, err := m.verifyMiss(m.call, m.hits[i].req, nil, -1)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("prefilling the result cache: %w", err)
		}
		if err := sameReport(rep, m.hits[i].want); err != nil {
			m.close()
			return nil, fmt.Errorf("prefill %s: %w", m.hits[i].req.Row, err)
		}
		m.hits[i].want = rep
	}
	// The untimed pass: every request once, checked.
	for k := range kindNames {
		for i := 0; i < m.count(reqKind(k)); i++ {
			if err := m.do(m.call, reqKind(k), i, nil, -1); err != nil {
				m.close()
				return nil, err
			}
		}
	}
	m.jobTimes = nil
	return m, nil
}

// count is the number of distinct requests of kind k.
func (m *serveMix) count(k reqKind) int {
	return [...]int{len(m.solves), len(m.batches), len(m.hits), len(m.misses)}[k]
}

// buildCases generates the request bodies and their expected answers from
// in-process handles.
func (m *serveMix) buildCases(r *rand.Rand) error {
	ctx := context.Background()
	handles := map[string]*repro.Protocol{}
	handle := func(row string, n int) (*repro.Protocol, error) {
		key := fmt.Sprint(row, n)
		if p := handles[key]; p != nil {
			return p, nil
		}
		p, err := repro.Compile(row, n)
		handles[key] = p
		return p, err
	}
	solveOut := func(p *repro.Protocol, in []int, seed int64) (*serve.SolveResponse, error) {
		out, err := p.Solve(ctx, in, repro.Seed(seed))
		if err != nil {
			return nil, err
		}
		return &serve.SolveResponse{Value: out.Value, Footprint: out.Footprint, Steps: out.Steps, MaxBits: out.MaxBits}, nil
	}
	// Case i cycles through every (row, n) pair, so the mix of rows is the
	// same for every seed; the seed draws the inputs and schedule seeds.
	draw := func(i int) (string, *repro.Protocol, []int, error) {
		row := serveSolveRows[i%len(serveSolveRows)]
		n := serveSolveNs[(i/len(serveSolveRows))%len(serveSolveNs)]
		p, err := handle(row, n)
		if err != nil {
			return "", nil, nil, err
		}
		in := make([]int, n)
		for i := range in {
			in[i] = r.Intn(p.Values())
		}
		return row, p, in, nil
	}
	for i := 0; i < serveSolveCases; i++ {
		row, p, in, err := draw(i)
		if err != nil {
			return err
		}
		seed := 1 + r.Int63n(1<<40)
		resp, err := solveOut(p, in, seed)
		if err != nil {
			return err
		}
		m.solves = append(m.solves, bodyCase{
			body: mustJSON(serve.SolveRequest{Row: row, Inputs: in, Seed: seed}),
			want: mustJSON(resp),
		})
	}
	for i := 0; i < serveBatchCases; i++ {
		row, p, in, err := draw(i)
		if err != nil {
			return err
		}
		req := serve.BatchRequest{Row: row}
		var want []byte
		for j := 0; j < batchRuns; j++ {
			seed := 1 + r.Int63n(1<<40)
			resp, err := solveOut(p, in, seed)
			if err != nil {
				return err
			}
			req.Runs = append(req.Runs, serve.BatchRun{Inputs: in, Seed: seed})
			want = append(want, mustJSON(serve.BatchResult{Index: j, Seed: seed, Outcome: resp})...)
		}
		m.batches = append(m.batches, bodyCase{body: mustJSON(req), want: want})
	}
	pin := func(reqs []serve.VerifyRequest) ([]verifyCase, error) {
		var out []verifyCase
		for _, req := range reqs {
			req.Inputs = portfolioInputs(serveVerifyN)
			p, err := handle(req.Row, serveVerifyN)
			if err != nil {
				return nil, err
			}
			rep, err := p.Verify(ctx, req.Inputs, req.MaxDepth)
			if err != nil {
				return nil, err
			}
			out = append(out, verifyCase{req: req, want: rep})
		}
		return out, nil
	}
	var err error
	if m.hits, err = pin(serveHitCases); err != nil {
		return err
	}
	m.misses, err = pin(serveMissCases)
	return err
}

// mustJSON encodes v as the service's json.Encoder does, newline included.
func mustJSON(v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// start runs the server on a loopback port and waits until it listens.
func (m *serveMix) start(resultLog string) error {
	srv, err := serve.New(serve.Config{
		Addr:            "127.0.0.1:0",
		ResultCachePath: resultLog,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	m.srv, m.stop, m.ran = srv, stop, make(chan error, 1)
	go func() { m.ran <- srv.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == "127.0.0.1:0" {
		select {
		case err := <-m.ran:
			m.ran <- err
			m.close()
			return fmt.Errorf("server: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			m.close()
			return errors.New("server did not start listening")
		}
		time.Sleep(time.Millisecond)
	}
	m.base = "http://" + srv.Addr()
	m.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, MaxIdleConns: 1,
	}}
	return nil
}

// close stops the server, waits for its drain, and drops the client's
// connections.
func (m *serveMix) close() {
	if m.client != nil {
		m.client.CloseIdleConnections()
	}
	if m.stop != nil {
		m.stop()
		<-m.ran
		m.stop = nil
	}
}

// call sends body and returns the status and response body.
func (m *serveMix) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, m.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do sends request i of kind k and checks the answer.
func (m *serveMix) do(send sender, k reqKind, i int, tr *tracer, parent int32) error {
	id := tr.begin("http."+kindNames[k], parent, int64(i))
	defer tr.end(id, 1)
	switch k {
	case kindSolve:
		c := &m.solves[(m.rotate[k]+i)%len(m.solves)]
		return m.expectBody(send, "/solve", c)
	case kindBatch:
		c := &m.batches[(m.rotate[k]+i)%len(m.batches)]
		return m.expectBody(send, "/solve/batch", c)
	case kindHit:
		c := &m.hits[(m.rotate[k]+i)%len(m.hits)]
		code, b, err := send("POST", "/verify", mustJSON(c.req))
		if err != nil {
			return err
		}
		var vr serve.VerifyResponse
		if code != http.StatusOK || json.Unmarshal(b, &vr) != nil || !vr.Cached {
			return fmt.Errorf("verify hit %s: status %d body %.200s", c.req.Row, code, b)
		}
		return sameReport(vr.Report, c.want)
	case kindMiss:
		c := &m.misses[(m.rotate[k]+i)%len(m.misses)]
		req := c.req
		req.MaxRuns = missRunsBase + m.missSeq.Add(1)
		rep, err := m.verifyMiss(send, req, tr, id)
		if err != nil {
			return err
		}
		return sameReport(rep, c.want)
	}
	return fmt.Errorf("unknown request kind %d", k)
}

func (m *serveMix) expectBody(send sender, path string, c *bodyCase) error {
	code, b, err := send("POST", path, c.body)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !bytes.Equal(b, c.want) {
		return fmt.Errorf("%s %s: status %d, body %.200q, want %.200q", path, c.body, code, b, c.want)
	}
	return nil
}

// verifyMiss posts a verify that must be queued and polls its job to the
// report.
func (m *serveMix) verifyMiss(send sender, req serve.VerifyRequest, tr *tracer, parent int32) (*repro.VerifyReport, error) {
	code, b, err := send("POST", "/verify", mustJSON(req))
	if err != nil {
		return nil, err
	}
	var vr serve.VerifyResponse
	if code != http.StatusAccepted || json.Unmarshal(b, &vr) != nil || vr.ID == "" {
		return nil, fmt.Errorf("verify miss %s: status %d body %.200s", req.Row, code, b)
	}
	for {
		id := tr.begin("http.job_get", parent, -1)
		code, b, err := send("GET", "/jobs/"+vr.ID, nil)
		tr.end(id, 1)
		if err != nil {
			return nil, err
		}
		var js serve.JobStatus
		if code != http.StatusOK || json.Unmarshal(b, &js) != nil {
			return nil, fmt.Errorf("job %s: status %d body %.200s", vr.ID, code, b)
		}
		switch js.State {
		case serve.JobDone:
			jt, err := jobTimes(js)
			if err != nil {
				return nil, err
			}
			m.mu.Lock()
			m.jobTimes = append(m.jobTimes, jt)
			m.mu.Unlock()
			return js.Report, nil
		case serve.JobQueued, serve.JobRunning:
			time.Sleep(missPoll)
		default:
			return nil, fmt.Errorf("job %s ended %s: %s", vr.ID, js.State, js.Error)
		}
	}
}

func jobTimes(js serve.JobStatus) (jobTiming, error) {
	var ts [3]time.Time
	for i, s := range []string{js.CreatedAt, js.StartedAt, js.FinishedAt} {
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return jobTiming{}, fmt.Errorf("job %s timestamp %q: %w", js.ID, s, err)
		}
		ts[i] = t
	}
	return jobTiming{wait: ts[1].Sub(ts[0]), run: ts[2].Sub(ts[1])}, nil
}

// status reads GET /status.
func (m *serveMix) status() (serve.StatusResponse, error) {
	var st serve.StatusResponse
	code, b, err := m.call("GET", "/status", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /status: status %d", code)
	}
	return st, json.Unmarshal(b, &st)
}

// sameReport compares two verify reports apart from Mem, which describes
// the exploration's memory, not its verdict.
func sameReport(got, want *repro.VerifyReport) error {
	if got == nil || want == nil {
		return errors.New("missing verify report")
	}
	g, w := *got, *want
	g.Mem, w.Mem = repro.VerifyMemStats{}, repro.VerifyMemStats{}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("verify report %+v, want %+v", g, w)
	}
	return nil
}

func (m *serveMix) run(d time.Duration, tr *tracer) *loadResult {
	m.mu.Lock()
	m.jobTimes = nil
	m.mu.Unlock()
	out := openLoop(d, serveRate, func(i int, due time.Time) error {
		// The operation's span runs from its due time; its first child is
		// the wait for a worker, which ends now.
		k := m.plan[i%len(m.plan)]
		root := tr.beginAt("op."+kindNames[k], due, -1, int64(i))
		tr.add("open.wait", due, root, int64(i), 1)
		err := m.do(m.call, k, i, tr, root)
		tr.end(root, 1)
		return err
	})
	out.note("offered_rate_per_s", serveRate)
	return out
}

func (m *serveMix) check(*loadResult) {}

// openLoop offers operations at rate per second for d, each due at
// start + i/rate, whether or not earlier ones have finished. One worker
// carries them out in order, so the process CPU time spent while it runs
// an operation is that operation's. Latency counts from the due time, so a
// stall delays — and is charged to — every operation due during it. The
// generator's own lateness (dispatch time minus due time) is noted as
// gen_late_p99_ms.
func openLoop(d time.Duration, rate float64, op func(i int, due time.Time) error) *loadResult {
	type due struct {
		i  int
		at time.Time
	}
	total := min(int(d.Seconds()*rate), recordCap)
	// The queue holds every operation of the run, so the generator never
	// blocks on a busy worker: a stall backs up the queue, not the clock.
	queue := make(chan due, total)
	done := make(chan struct{})
	start, cpuStart := time.Now(), cpuNow()
	out := newLoadResult(start)
	go func() {
		defer close(done)
		for q := range queue {
			t0, c0 := time.Now(), cpuNow()
			err := op(q.i, q.at)
			el, cpu := time.Since(q.at), cpuNow()-c0
			out.attempted++
			if err != nil {
				out.fail(fmt.Errorf("op %d: %w", q.i, err))
				continue
			}
			out.record(el, cpu, t0.Sub(start))
			out.speed.maybe()
		}
	}()
	lateness := make([]float64, 0, total)
	for i := 0; i < total; i++ {
		at := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		lateness = append(lateness, float64(time.Since(at))/1e6)
		queue <- due{i, at}
	}
	close(queue)
	<-done
	out.wall, out.cpuTotal = time.Since(start), cpuNow()-cpuStart
	out.note("gen_late_p99_ms", percentile(lateness, 0.99))
	return out
}
