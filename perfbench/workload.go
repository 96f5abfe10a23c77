package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// workload is one named set of inputs. Every workload exists because it
// loads a layer no other workload loads:
//
//   - solve-table: the step VM and the handle's fork-and-pool path; the
//     explorer and the service do no work, so an explorer change must
//     predict no change here.
//   - verify-shm: the sequential walk, the seen-state tables, the state
//     key or hash, and fork/close; the solve path and the service are
//     absent.
//   - verify-mp: channel cells and delivery branches, which verify-shm
//     never touches.
//   - serve-mix: JSON, the handle LRU, the result-cache log and the job
//     queue, under an open loop.
type workload struct {
	name  string
	tail  float64 // percentile reported as ref_tail_ms
	setup func(cfg config) (load, error)
}

// load is a set-up workload, ready to drive.
type load interface {
	// run drives the timed region for d. A non-nil tracer records spans
	// around the public-layer calls of each operation.
	run(d time.Duration, tr *tracer) *loadResult
	// check runs the correctness checks deferred past the timed region,
	// counting each mismatch as a failed operation.
	check(out *loadResult)
	close()
}

var workloads = []workload{
	{name: "solve-table", tail: 0.99, setup: setupSolveTable},
	{name: "verify-shm", tail: 0.90, setup: setupVerifySHM},
	{name: "verify-mp", tail: 0.90, setup: setupVerifyMP},
	{name: "serve-mix", tail: 0.99, setup: setupServeMix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// loadResult is what a timed region produced.
type loadResult struct {
	latencies []time.Duration // wall time of each successful operation, from its start (closed loop) or due time (open loop)
	cpu       []time.Duration // process CPU time spent during each successful operation
	at        []time.Duration // when each successful operation began to run, from the start
	speed     *speedProbe     // the reference job's runs during the region
	wall      time.Duration
	cpuTotal  time.Duration // process CPU time over the whole region
	attempted int64
	failed    int64
	errs      []string // the first few failures, for the log
	notes     map[string]any
}

// recordCap is the most operations one timed region records: far more
// than the fastest workload completes in a minute.
const recordCap = 1 << 22

// The per-operation records of a timed region live outside the Go heap,
// in memory mapped once per process and reused by every region, so that
// live_heap_p95_mb counts the program and not the benchmark's own
// records, which grow with the number of operations a run completes. A
// region's records are valid until the next region starts.
var recLat, recCPU, recAt = offHeap(recordCap), offHeap(recordCap), offHeap(recordCap)

// offHeap returns an empty slice with room for n durations in anonymous
// memory the garbage collector neither counts nor scans; pages are
// committed as they are first written.
func offHeap(n int) []time.Duration {
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(time.Duration(0))), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mapping %d records: %v", n, err))
	}
	return unsafe.Slice((*time.Duration)(unsafe.Pointer(&b[0])), n)[:0]
}

func newLoadResult(start time.Time) *loadResult {
	return &loadResult{latencies: recLat[:0], cpu: recCPU[:0], at: recAt[:0], speed: newSpeedProbe(start)}
}

// record adds one successful operation and reports whether there is room
// for another.
func (r *loadResult) record(lat, cpu, at time.Duration) bool {
	r.latencies = append(r.latencies, lat)
	r.cpu = append(r.cpu, cpu)
	r.at = append(r.at, at)
	return len(r.cpu) < cap(r.cpu)
}

const maxLoggedErrors = 8

// fail counts one failed operation.
func (r *loadResult) fail(err error) {
	r.failed++
	if len(r.errs) < maxLoggedErrors {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *loadResult) note(k string, v any) {
	if r.notes == nil {
		r.notes = make(map[string]any)
	}
	r.notes[k] = v
}

// closedLoop calls op back to back on one goroutine until d has passed:
// each operation starts when the previous one returns. op's error marks
// the operation failed.
func closedLoop(d time.Duration, tr *tracer, name string, op func(i int, parent int32) error) *loadResult {
	start, cpuStart := time.Now(), cpuNow()
	out := newLoadResult(start)
	deadline := start.Add(d)
	for i := 0; ; i++ {
		t0, c0 := time.Now(), cpuNow()
		if !t0.Before(deadline) {
			break
		}
		id := tr.begin(name, -1, int64(i))
		err := op(i, id)
		el, cpu := time.Since(t0), cpuNow()-c0
		tr.end(id, 1)
		out.attempted++
		if err != nil {
			out.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		if !out.record(el, cpu, t0.Sub(start)) {
			break
		}
		out.speed.maybe()
	}
	out.wall, out.cpuTotal = time.Since(start), cpuNow()-cpuStart
	return out
}

// rng returns the workload's generator for one purpose: each purpose gets
// its own stream, so adding a draw in one place moves no other input.
func rng(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}
