package main

import (
	"fmt"
	"strings"
	"time"
)

// tracedWarmUp is the untimed start of a traced run's loop.
const tracedWarmUp = time.Second

// runTraced is the traced run: the workload's loop for half of the timed
// region untraced and half with spans around its public-layer calls (the
// difference of their p50 is the tracing overhead), then the layer probes,
// which report the per-layer metrics.
func runTraced(cfg config, w workload) error {
	// Set up exactly as the timed run does, so both start from the same
	// heap and caches.
	ld, _, err := setUp(cfg, w)
	if err != nil {
		return err
	}
	defer ld.close()
	// A discarded warm-up, then untraced and traced quarters in turn, so
	// neither side gets the start of the run or a drift of the host alone.
	ld.run(tracedWarmUp, nil)
	quarter := time.Duration(cfg.seconds) * time.Second / 4
	loopTr := newTracer()
	plain, traced := &loadResult{}, &loadResult{}
	for i := 0; i < 4; i++ {
		tr, into := (*tracer)(nil), plain
		if i%2 == 1 {
			tr, into = loopTr, traced
		}
		part := ld.run(quarter, tr)
		ld.check(part)
		into.latencies = append(into.latencies, part.latencies...)
		into.attempted += part.attempted
		into.failed += part.failed
		into.errs = append(into.errs, part.errs...)
	}
	out := &loadResult{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		errs:      append(plain.errs, traced.errs...),
	}
	untracedMean := meanMs(plain.latencies)
	up, tp := summarize(plain.latencies, w.tail), summarize(traced.latencies, w.tail)
	fmt.Printf("tracing overhead: p50 %.4f ms traced, %.4f ms untraced: %+.4f ms\n", tp.p50, up.p50, tp.p50-up.p50)

	probeTr := newTracer()
	pr, err := layerMetrics(cfg, probeTr, out)
	if err != nil {
		return err
	}
	ms := pr.ms
	ms["trace.overhead_p50_ms"] = metric{tp.p50 - up.p50, "ms"}
	accounting(w.name, ms, pr.paths, loopTr.spans, untracedMean, up.p50)

	for _, t := range []struct {
		tr   *tracer
		name string
	}{{loopTr, "loop"}, {probeTr, "probes"}} {
		path, err := t.tr.write(cfg.spans, fmt.Sprintf("%s-seed%d-%s.jsonl", w.name, cfg.seed, t.name))
		if err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(t.tr.spans), path)
	}
	return emit(out, ms)
}

func meanMs(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range lat {
		sum += l
	}
	return float64(sum) / float64(len(lat)) / 1e6
}

// accounting rebuilds the traced workload's operations from the self
// times along their blocking path — the layers below the handle as the
// probes timed them per operation, plus the handle's own median time — and
// prints the median and mean beside the untraced p50 and mean.
func accounting(workload string, ms map[string]metric, paths map[string][]float64, loop []span, mean, p50 float64) {
	var ops []float64 // ms per operation
	var path string
	switch workload {
	case "solve-table":
		self := ms["repro.solve_self_us"].Value / 1e3
		for _, r := range paths[workload] {
			ops = append(ops, r+self)
		}
		path = "sim.Fork + Σ sim.Step + sim.Close of a replica run + repro.solve_self"
	case "verify-shm":
		self := ms["repro.verify_self_us"].Value / 1e3
		for _, r := range paths[workload] {
			ops = append(ops, r+self)
		}
		path = "explore.Exhaustive with the handle's factory and options + repro.verify_self"
	case "verify-mp":
		ops = paths[workload]
		path = "repro.Verify, sequential; the walk is not split further"
	case "serve-mix":
		// An open-loop operation's span runs from its due time: the wait
		// for a worker, then the request, which serve.transport_us and
		// serve.handler_us split between the two layers.
		for _, s := range loop {
			if s.Parent < 0 && strings.HasPrefix(s.Name, "op.") {
				ops = append(ops, float64(s.End-s.Start)/1e6)
			}
		}
		path = "open.wait + the client request of the traced half-run"
	}
	var sum float64
	for _, v := range ops {
		sum += v
	}
	am, amean := median(ops), sum/float64(max(len(ops), 1))
	fmt.Printf("accounting: %s over %d operations: median %.4f ms against untraced p50 %.4f ms (%+.1f%%), mean %.4f ms against untraced mean %.4f ms (%+.1f%%)\n",
		path, len(ops), am, p50, 100*(am-p50)/p50, amean, mean, 100*(amean-mean)/mean)
}
