// Command perfbench is the repository's benchmark: one program that runs a
// named workload against the five layers of the stack — machine, sim,
// explore, repro (compiled handles) and serve — and prints every metric by
// name with its unit. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload solve-table --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// tracing off: set-up time, the live heap, and the process CPU time the
// operations took, scaled to the reference host's speed (speed.go) —
// throughput and the median and tail time per operation. The raw CPU and
// wall-clock figures are printed beside them. With --trace 1 it runs the
// workload once untraced and once with spans recorded around every
// public-layer call, prints the tracing overhead, and then reports the
// per-layer metrics from the layer probes (layers.go). Spans are written
// to --spans when the run ends.
//
// The benchmark calls each layer only through its exported functions and
// times those calls from its own files; nothing inside the program is
// instrumented.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so a few slow set-ups (a neighbour's burst, a cold page
// cache) do not move the figure.
const setupRepeats = 9

// setupRefJobs is how many reference jobs time the host's speed before
// each set-up.
const setupRefJobs = 5

// config is one run's command line.
type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	cpuprofile string
	spans      string
	tmp        string // this run's scratch directory
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed region in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the timed region to this file")
	flag.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = trace == 1
	// Every workload runs its load on one P. With two, the garbage
	// collector's worker and its stop-the-world pauses wait on a second
	// vCPU that the host may be running another guest on, and a run
	// measures the host's load rather than the program.
	runtime.GOMAXPROCS(1)
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	// Result caches and spill files live under the build directory, inside
	// the checkout, and go when the run ends.
	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratch, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	fmt.Printf("host: %s\n", hostInfo())
	fmt.Printf("inputs: workload=%s seed=%d seconds=%d trace=%v tail=p%g\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, w.tail*100)
	if cfg.trace {
		return runTraced(cfg, w)
	}
	return runTimed(cfg, w)
}

// setUp builds the workload setupRepeats times, closing all but the last,
// and returns the last with the median set-up time. Each set-up's wall
// time is scaled, like the operations', by the reference job's speed just
// before it (speed.go).
func setUp(cfg config, w workload) (load, float64, error) {
	var times []float64
	var ld load
	for i := 0; i < setupRepeats; i++ {
		if ld != nil {
			ld.close()
		}
		speed := refSpeed(setupRefJobs)
		start := time.Now()
		var err error
		ld, err = w.setup(cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		runtime.GC()
		times = append(times, time.Since(start).Seconds()*speed)
	}
	return ld, median(times), nil
}

func runTimed(cfg config, w workload) error {
	ld, setup, err := setUp(cfg, w)
	if err != nil {
		return err
	}
	defer ld.close()
	stopProfile, err := startProfile(cfg.cpuprofile)
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	steal0 := stealTicks()
	out := ld.run(time.Duration(cfg.seconds)*time.Second, nil)
	steal := stealTicks() - steal0
	heapP95 := heap.stop()
	stopProfile()
	ld.check(out)
	adjusted := out.speed.adjust(out.cpu, out.at)
	adj := summarize(adjusted, w.tail)
	if err := adj.tailRule(w.tail); err != nil {
		return err
	}
	ms := map[string]metric{
		"setup_s":          {setup, "s"},
		"ref_ops_per_s":    {1e3 / meanMs(adjusted), "1/s"},
		"ref_p50_ms":       {adj.p50, "ms"},
		"ref_tail_ms":      {adj.tail, "ms"},
		"live_heap_p95_mb": {heapP95, "MB"},
	}
	cpu, wall := summarize(out.cpu, w.tail), summarize(out.latencies, w.tail)
	fmt.Printf("reference job: median %.1f us of CPU against %.1f us nominal; speed %.3f of the reference host\n",
		float64(out.speed.median())/1e3, float64(refJobNominal)/1e3, float64(refJobNominal)/float64(out.speed.median()))
	fmt.Printf("adjusted: %d operations; %.2f ops/s; p50 %.4f ms, p%g %.4f ms (%d beyond)\n",
		adj.n, 1e3/meanMs(adjusted), adj.p50, w.tail*100, adj.tail, adj.beyond)
	fmt.Printf("cpu: %.2f ops per CPU-s; p50 %.4f ms, p%g %.4f ms; %.3f s of process CPU in %.3f s of wall time\n",
		1e3/meanMs(out.cpu), cpu.p50, w.tail*100, cpu.tail, out.cpuTotal.Seconds(), out.wall.Seconds())
	fmt.Printf("wall: %.2f ops/s; p50 %.4f ms, p%g %.4f ms; host steal %.2f vCPU-s during the region\n",
		float64(len(out.latencies))/out.wall.Seconds(), wall.p50, w.tail*100, wall.tail, float64(steal)/100)
	keys := make([]string, 0, len(out.notes))
	for k := range out.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("note: %s = %v\n", k, out.notes[k])
	}
	return emit(out, ms)
}

// emit prints the metrics one per line and then the result object.
func emit(out *loadResult, ms map[string]metric) error {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric: %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", e)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: ms}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func startProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
