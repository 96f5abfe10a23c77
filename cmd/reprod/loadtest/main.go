// Command loadtest is the load-test and smoke-test client for the reprod
// verification service. In load mode it hammers POST /solve from many
// concurrent connections for a fixed duration, scrapes /metrics mid-run,
// and reports sustained requests/sec with latency percentiles: saturation
// throughput across many connections, which perfbench's fixed-rate
// serve-mix workload does not measure. In -smoke mode it exercises every
// endpoint once — solve, streamed batch, the verify job lifecycle (queue,
// poll, cache hit, cancel), status, healthz, metrics — and exits non-zero
// on the first contract violation, which is what the CI end-to-end step
// runs before asserting a clean SIGTERM drain.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8090", "service base URL")
		duration   = flag.Duration("duration", 10*time.Second, "load-test duration")
		conns      = flag.Int("conns", 32, "concurrent load connections")
		row        = flag.String("row", "T1.10", "row to solve in load mode")
		inputs     = flag.String("inputs", "2,0,1", "comma-separated inputs for load mode")
		verifyJobs = flag.Int("verify-jobs", 2, "verify jobs enqueued at load start (exercises the queue)")
		smoke      = flag.Bool("smoke", false, "run the endpoint smoke battery instead of load")
	)
	flag.Parse()
	c := &client{base: strings.TrimRight(*addr, "/"), hc: &http.Client{
		Transport: &http.Transport{MaxIdleConns: 4 * *conns, MaxIdleConnsPerHost: 4 * *conns},
		Timeout:   60 * time.Second,
	}}
	if err := c.waitHealthy(15 * time.Second); err != nil {
		fatal("service not healthy: %v", err)
	}
	if *smoke {
		if err := c.runSmoke(); err != nil {
			fatal("smoke: %v", err)
		}
		fmt.Println("loadtest: smoke PASS")
		return
	}
	in, err := parseInputs(*inputs)
	if err != nil {
		fatal("%v", err)
	}
	res, err := c.runLoad(*row, in, *conns, *duration, *verifyJobs)
	if err != nil {
		fatal("load: %v", err)
	}
	res.print()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadtest: "+format+"\n", args...)
	os.Exit(1)
}

func parseInputs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -inputs %q: %v", s, err)
		}
		out[i] = v
	}
	return out, nil
}

// client wraps the service's JSON surface.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) postJSON(path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	r, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			return r.StatusCode, fmt.Errorf("%s: decoding response: %v", path, err)
		}
	}
	return r.StatusCode, nil
}

func (c *client) getJSON(path string, resp any) (int, error) {
	r, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			return r.StatusCode, fmt.Errorf("%s: decoding response: %v", path, err)
		}
	}
	return r.StatusCode, nil
}

func (c *client) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		r, err := c.hc.Get(c.base + "/healthz")
		if err == nil {
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("healthz: %s", r.Status)
		} else {
			lastErr = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return lastErr
}

// --- load mode ---------------------------------------------------------------

type loadResult struct {
	requests           int64
	errors             int64
	elapsed            time.Duration
	p50, p90, p99, max time.Duration
	midMetrics         string // parsed mid-run scrape summary
}

func (r *loadResult) rps() float64 { return float64(r.requests) / r.elapsed.Seconds() }

func (r *loadResult) print() {
	fmt.Printf("loadtest: %d requests in %.1fs = %.1f req/s (%d errors)\n",
		r.requests, r.elapsed.Seconds(), r.rps(), r.errors)
	fmt.Printf("latency: p50=%.3gms p90=%.3gms p99=%.3gms max=%.3gms\n",
		ms(r.p50), ms(r.p90), ms(r.p99), ms(r.max))
	if r.midMetrics != "" {
		fmt.Printf("mid-run /metrics: %s\n", r.midMetrics)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (c *client) runLoad(row string, inputs []int, conns int, duration time.Duration, verifyJobs int) (*loadResult, error) {
	// Warm the handle cache and fail fast on a bad row before spawning the
	// fleet.
	var first serve.SolveResponse
	if code, err := c.postJSON("/solve", serve.SolveRequest{Row: row, Inputs: inputs, Seed: 1}, &first); err != nil {
		return nil, err
	} else if code != http.StatusOK {
		return nil, fmt.Errorf("warmup solve: HTTP %d", code)
	}
	// A few verify jobs through the queue so the mid-run scrape has queue
	// and result-cache activity to show.
	for i := 0; i < verifyJobs; i++ {
		var vr serve.VerifyResponse
		if _, err := c.postJSON("/verify", serve.VerifyRequest{Row: row, Inputs: inputs, MaxDepth: 5}, &vr); err != nil {
			return nil, fmt.Errorf("verify enqueue: %v", err)
		}
	}

	var (
		stop     atomic.Bool
		requests atomic.Int64
		errCount atomic.Int64
		seed     atomic.Int64
		wg       sync.WaitGroup
		latMu    sync.Mutex
		lats     []time.Duration
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		// Each worker owns one raw keep-alive HTTP/1.1 connection: the
		// generator must stay far cheaper than the service under test, and
		// on a shared box the full net/http client stack costs more per
		// request than the server spends answering it.
		rc, err := dialRaw(c.base, row, inputs)
		if err != nil {
			return nil, fmt.Errorf("dial: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rc.close()
			local := make([]time.Duration, 0, 1<<16)
			defer func() {
				latMu.Lock()
				lats = append(lats, local...)
				latMu.Unlock()
			}()
			for !stop.Load() {
				t0 := time.Now()
				code, err := rc.solve(seed.Add(1))
				d := time.Since(t0)
				if err != nil || code != http.StatusOK {
					errCount.Add(1)
					if err != nil {
						// A torn connection is fatal for this worker.
						return
					}
				} else {
					requests.Add(1)
					local = append(local, d)
				}
			}
		}()
	}
	// Mid-run metrics scrape: the counters the acceptance criteria ask to
	// see live under load.
	var midMetrics atomic.Pointer[string]
	time.AfterFunc(duration/2, func() {
		if sum, err := c.scrapeMetrics(); err == nil {
			midMetrics.Store(&sum)
		}
	})
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	res := &loadResult{
		requests: requests.Load(), errors: errCount.Load(), elapsed: elapsed,
	}
	if sum := midMetrics.Load(); sum != nil {
		res.midMetrics = *sum
	}
	if len(lats) > 0 {
		res.p50 = lats[len(lats)*50/100]
		res.p90 = lats[len(lats)*90/100]
		res.p99 = lats[len(lats)*99/100]
		res.max = lats[len(lats)-1]
	}
	return res, nil
}

// rawConn is the hot-loop transport: one persistent HTTP/1.1 connection
// with a pre-rendered POST /solve request in which only the seed varies.
// Everything the generator does per request is one buffered write, one
// buffered read, and a Content-Length-framed body skip — no header maps,
// no transport locking, no per-request goroutines — so a single box can
// drive the service well past the rates the stock client tops out at.
type rawConn struct {
	conn       net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	headPrefix []byte // "POST /solve HTTP/1.1\r\nHost: ...\r\n...Content-Length: "
	bodyPrefix []byte // `{"row":"...","inputs":[...],"seed":`
	scratch    []byte
}

func dialRaw(base, row string, inputs []int) (*rawConn, error) {
	host, ok := strings.CutPrefix(base, "http://")
	if !ok {
		return nil, fmt.Errorf("raw load transport needs an http:// base, have %q", base)
	}
	host = strings.TrimRight(host, "/")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	rc := &rawConn{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 4096),
		bw:   bufio.NewWriterSize(conn, 4096),
		headPrefix: []byte("POST /solve HTTP/1.1\r\nHost: " + host +
			"\r\nContent-Type: application/json\r\nContent-Length: "),
		scratch: make([]byte, 4096),
	}
	body := fmt.Sprintf(`{"row":%q,"inputs":[`, row)
	for i, v := range inputs {
		if i > 0 {
			body += ","
		}
		body += strconv.Itoa(v)
	}
	rc.bodyPrefix = []byte(body + `],"seed":`)
	return rc, nil
}

func (rc *rawConn) close() { rc.conn.Close() }

// solve issues one POST /solve with the given seed and returns the HTTP
// status code after consuming the full response.
func (rc *rawConn) solve(seed int64) (int, error) {
	body := strconv.AppendInt(rc.scratch[:0], seed, 10)
	bodyLen := len(rc.bodyPrefix) + len(body) + 1
	rc.bw.Write(rc.headPrefix)
	rc.bw.Write(strconv.AppendInt(body[len(body):], int64(bodyLen), 10))
	rc.bw.WriteString("\r\n\r\n")
	rc.bw.Write(rc.bodyPrefix)
	rc.bw.Write(body)
	rc.bw.WriteByte('}')
	if err := rc.bw.Flush(); err != nil {
		return 0, err
	}
	return rc.readResponse()
}

// readResponse parses the status line, scans headers for Content-Length,
// and discards the body. Responses from reprod are small and always
// Content-Length framed; anything else is a hard error.
func (rc *rawConn) readResponse() (int, error) {
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	contentLength := -1
	for {
		line, err = rc.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			break
		}
		if v, ok := cutHeader(line, "content-length"); ok {
			contentLength, err = strconv.Atoi(v)
			if err != nil {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if contentLength < 0 {
		return 0, fmt.Errorf("response without Content-Length (status %d)", code)
	}
	if _, err := io.CopyN(io.Discard, rc.br, int64(contentLength)); err != nil {
		return 0, err
	}
	return code, nil
}

// cutHeader matches a header line against a lower-case name and returns the
// trimmed value.
func cutHeader(line []byte, name string) (string, bool) {
	i := bytes.IndexByte(line, ':')
	if i < 0 || len(line) < len(name) || i != len(name) {
		return "", false
	}
	for j := 0; j < i; j++ {
		c := line[j]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[j] {
			return "", false
		}
	}
	return string(bytes.TrimSpace(line[i+1:])), true
}

// scrapeMetrics fetches /metrics and summarizes the cache and queue series.
func (c *client) scrapeMetrics() (string, error) {
	r, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer r.Body.Close()
	want := map[string]string{
		"reprod_handle_cache_hits_total": "handle_cache_hits",
		"reprod_result_cache_hits_total": "result_cache_hits",
		"reprod_queue_depth":             "queue_depth",
		"reprod_jobs_running":            "jobs_running",
	}
	vals := map[string]string{}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if short, wanted := want[name]; wanted {
			vals[short] = val
		}
	}
	var parts []string
	for _, short := range []string{"handle_cache_hits", "result_cache_hits", "queue_depth", "jobs_running"} {
		if v, ok := vals[short]; ok {
			parts = append(parts, short+"="+v)
		}
	}
	if len(parts) == 0 {
		return "", fmt.Errorf("no recognized series in /metrics")
	}
	return strings.Join(parts, " "), nil
}

// --- smoke mode --------------------------------------------------------------

// runSmoke exercises every endpoint once and checks the service contracts
// a deployment depends on. It leaves one verify job enqueued on exit so the
// CI step's SIGTERM exercises the drain path with real work outstanding.
func (c *client) runSmoke() error {
	// Solve: deterministic for a fixed seed, value must be some input.
	req := serve.SolveRequest{Row: "T1.10", Inputs: []int{2, 0, 1}, Seed: 7}
	var out1, out2 serve.SolveResponse
	if code, err := c.postJSON("/solve", req, &out1); err != nil || code != http.StatusOK {
		return fmt.Errorf("solve: code=%d err=%v", code, err)
	}
	if out1.Value != 0 && out1.Value != 1 && out1.Value != 2 {
		return fmt.Errorf("solve: decided %d, not an input", out1.Value)
	}
	if _, err := c.postJSON("/solve", req, &out2); err != nil || out1 != out2 {
		return fmt.Errorf("solve: not deterministic for one seed: %+v vs %+v (err=%v)", out1, out2, err)
	}
	// Solve input validation surfaces as 400.
	if code, _ := c.postJSON("/solve", serve.SolveRequest{Row: "T1.10", Inputs: []int{9, 9, 9}}, nil); code != http.StatusBadRequest {
		return fmt.Errorf("solve with out-of-range inputs: got HTTP %d, want 400", code)
	}
	fmt.Println("smoke: solve ok")

	// Batch: NDJSON, one line per run, spec order.
	breq := serve.BatchRequest{Row: "T1.10", Runs: []serve.BatchRun{
		{Inputs: []int{2, 0, 1}, Seed: 1}, {Inputs: []int{2, 0, 1}, Seed: 2},
		{Inputs: []int{2, 0, 1}, Seed: 3}, {Inputs: []int{2, 0, 1}, Seed: 4},
		{Inputs: []int{2, 0, 1}, Seed: 5},
	}}
	body, _ := json.Marshal(breq)
	r, err := c.hc.Post(c.base+"/solve/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("batch: %v", err)
	}
	sc := bufio.NewScanner(r.Body)
	var got int
	for sc.Scan() {
		var line serve.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			r.Body.Close()
			return fmt.Errorf("batch line %d: %v", got, err)
		}
		if line.Index != got || line.Error != "" || line.Outcome == nil {
			r.Body.Close()
			return fmt.Errorf("batch line %d: %+v", got, line)
		}
		got++
	}
	r.Body.Close()
	if got != len(breq.Runs) {
		return fmt.Errorf("batch: %d result lines, want %d", got, len(breq.Runs))
	}
	fmt.Println("smoke: batch ok")

	// Verify: async job, poll to done, then a byte-identical cache hit.
	vreq := serve.VerifyRequest{Row: "T1.10", Inputs: []int{0, 1, 2}, MaxDepth: 5}
	var vr serve.VerifyResponse
	code, err := c.postJSON("/verify", vreq, &vr)
	if err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	switch code {
	case http.StatusAccepted:
		st, err := c.pollJob(vr.ID, 30*time.Second)
		if err != nil {
			return err
		}
		if st.State != serve.JobDone || st.Report == nil || len(st.Report.Violations) != 0 {
			return fmt.Errorf("verify job: state=%s report=%+v", st.State, st.Report)
		}
	case http.StatusOK:
		if !vr.Cached || vr.Report == nil {
			return fmt.Errorf("verify: 200 without cached report: %+v", vr)
		}
	default:
		return fmt.Errorf("verify: HTTP %d", code)
	}
	var vr2 serve.VerifyResponse
	if code, err := c.postJSON("/verify", vreq, &vr2); err != nil || code != http.StatusOK || !vr2.Cached {
		return fmt.Errorf("verify repeat: code=%d cached=%t err=%v (want 200 cached)", code, vr2.Cached, err)
	}
	fmt.Println("smoke: verify + result cache ok")

	// Job cancellation: a queued/running job turns terminal; DELETE is the
	// observable-cancellation contract.
	var vslow serve.VerifyResponse
	if code, err := c.postJSON("/verify", serve.VerifyRequest{Row: "T1.9", Inputs: []int{0, 1, 2}, MaxDepth: 8}, &vslow); err != nil || code != http.StatusAccepted {
		return fmt.Errorf("verify (cancel target): code=%d err=%v", code, err)
	}
	var del serve.JobStatus
	if code, err := c.deleteJSON("/jobs/"+vslow.ID, &del); err != nil || code != http.StatusOK {
		return fmt.Errorf("cancel: code=%d err=%v", code, err)
	}
	st, err := c.pollJobTerminal(vslow.ID, 30*time.Second)
	if err != nil {
		return err
	}
	if st.State != serve.JobCancelled && st.State != serve.JobDone {
		return fmt.Errorf("cancelled job ended %q, want cancelled (or done if it won the race)", st.State)
	}
	fmt.Println("smoke: job cancel ok")

	// Status and metrics.
	var status serve.StatusResponse
	if code, err := c.getJSON("/status", &status); err != nil || code != http.StatusOK || status.QueueCapacity < 1 {
		return fmt.Errorf("status: code=%d err=%v %+v", code, err, status)
	}
	sum, err := c.scrapeMetrics()
	if err != nil {
		return fmt.Errorf("metrics: %v", err)
	}
	fmt.Println("smoke: status + metrics ok (" + sum + ")")

	// Leave one real job enqueued: the caller's SIGTERM must drain it —
	// the fair-termination half of the smoke, asserted by the CI step via
	// the server's exit status and drain log line.
	var last serve.VerifyResponse
	if code, err := c.postJSON("/verify", serve.VerifyRequest{Row: "T1.10", Inputs: []int{1, 0, 2}, MaxDepth: 6}, &last); err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		return fmt.Errorf("drain-target verify: code=%d err=%v", code, err)
	}
	fmt.Printf("smoke: left job %q for the SIGTERM drain\n", last.ID)
	return nil
}

func (c *client) deleteJSON(path string, resp any) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			return r.StatusCode, err
		}
	}
	return r.StatusCode, nil
}

func (c *client) pollJob(id string, timeout time.Duration) (*serve.JobStatus, error) {
	st, err := c.pollJobTerminal(id, timeout)
	if err != nil {
		return nil, err
	}
	if st.State == serve.JobFailed {
		return nil, fmt.Errorf("job %s failed: %s", id, st.Error)
	}
	return st, nil
}

func (c *client) pollJobTerminal(id string, timeout time.Duration) (*serve.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st serve.JobStatus
		code, err := c.getJSON("/jobs/"+id, &st)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("job %s: HTTP %d", id, code)
		}
		switch st.State {
		case serve.JobDone, serve.JobFailed, serve.JobCancelled:
			return &st, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("job %s: not terminal within %s", id, timeout)
}
