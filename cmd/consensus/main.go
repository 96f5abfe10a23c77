// Command consensus runs any of the paper's protocols on chosen inputs
// under a chosen scheduler and reports the decision together with space and
// step measurements.
//
// Usage:
//
//	consensus -row T1.9 -inputs 3,1,4,1,2 [-l cap] [-sched random|rr|solo]
//	          [-seed s] [-crash p] [-trace]
//	consensus -row T1.9 -inputs 3,1,4,1,2 -batch 1000 [-workers w]
//	consensus -row T1.10 -inputs 0,1,2 -explore 6 [-workers w] [-sym]
//	consensus -row MP.QSC -inputs 1,0,1 -explore 16 -deliver reorder [-drops k]
//	consensus -scenario byz-fork [-deliver lossy -drops 1] [-workers w]
//
// The number of processes is the number of inputs. With -batch N the run
// becomes a seed sweep: N independent schedules (seeds 1..N) executed in
// parallel on the batch runner, reporting the decision distribution and
// aggregate throughput instead of a single trace. With -explore D the run
// becomes an exhaustive safety check over every interleaving up to depth D
// (0 = to completion; wait-free rows only), on forked configuration
// snapshots with canonical-state deduplication; -workers spreads the
// exploration across a work-stealing worker pool without changing the
// report, and -sym merges configurations that are equal up to a permutation
// of the uniform memory locations (and of indistinguishable processes),
// shrinking the state space without changing the safety verdict.
//
// For the message-passing rows, -deliver picks the network adversary the
// run or exploration branches over — ordered (FIFO), reorder (any pending
// message), or lossy (reorder plus up to -drops adversarial drops) — and
// -scenario runs one entry of the adversarial scenario portfolio (crashes,
// partitions, Byzantine senders; spellings listed on a bad name) as an
// exhaustive exploration from its planted configuration, checking the
// scenario's expected verdict: planted violations must be found, honest
// scenarios must verify safe.
//
// Batch and explore modes run on one compiled repro.Protocol handle: the
// row is resolved once, and every run of the sweep forks the handle's
// pristine snapshot instead of rebuilding the system. Both modes are
// interruptible — Ctrl-C cancels the sweep or exploration promptly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/sim"
)

func parseInputs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad input %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	rowID := flag.String("row", "T1.9", "Table 1 row id (see spacehier for the list)")
	inputsFlag := flag.String("inputs", "1,0,2", "comma-separated inputs, one per process")
	l := flag.Int("l", 2, "buffer capacity for the l-buffer rows")
	schedName := flag.String("sched", "random", "scheduler: random, rr, solo:<pid>")
	seed := flag.Int64("seed", 1, "seed for the random scheduler")
	crash := flag.Float64("crash", 0, "per-step crash probability (random crash injection)")
	trace := flag.Bool("trace", false, "print every executed step")
	maxSteps := flag.Int64("max-steps", 50_000_000, "step budget")
	batch := flag.Int("batch", 0, "run seeds 1..N in parallel and report the aggregate")
	workers := flag.Int("workers", 0, "parallel workers for -batch and -explore (0 = GOMAXPROCS)")
	exploreDepth := flag.Int("explore", -1, "exhaustively check every interleaving up to depth D (0 = to completion)")
	sym := flag.Bool("sym", false, "with -explore: deduplicate configurations up to location/process symmetry")
	table := flag.String("table", "exact", "with -explore: seen-state table mode (exact, compact, compact128, bitstate)")
	tableMB := flag.Int64("table-mb", 0, "with -explore: compacted-table memory cap in MiB (0 = mode default)")
	spill := flag.Int("spill", 0, "with -explore: spill the frontier to disk beyond N resident nodes (per worker under -workers)")
	deliver := flag.String("deliver", "", "message-passing rows: delivery adversary (ordered, reorder, lossy)")
	drops := flag.Int("drops", 0, "with -deliver lossy: the adversary's total message-drop budget")
	scenarioName := flag.String("scenario", "", "explore one adversarial scenario of the MP.QSC portfolio and check its verdict")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	inputs, err := parseInputs(*inputsFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *l < 1 {
		log.Fatalf("-l %d: buffer capacity must be at least 1", *l)
	}
	// The delivery flags parse once for every mode; an empty -deliver keeps
	// the row's default model (ordered FIFO, no drops).
	var deliverOpts []repro.CompileOption
	var simDeliver []sim.SystemOption
	if *deliver != "" {
		mode, err := repro.ParseDeliveryMode(*deliver)
		if err != nil {
			log.Fatal(err)
		}
		if *drops < 0 || (*drops > 0 && mode != repro.DeliveryLossy) {
			log.Fatalf("-drops %d needs -deliver lossy", *drops)
		}
		deliverOpts = append(deliverOpts, repro.WithDelivery(mode, *drops))
		d := sim.Delivery{Mode: sim.DeliverOrdered}
		switch mode {
		case repro.DeliveryReorder:
			d.Mode = sim.DeliverReorder
		case repro.DeliveryLossy:
			d.Mode, d.MaxDrops = sim.DeliverLossy, *drops
		}
		simDeliver = append(simDeliver, sim.WithDelivery(d))
	} else if *drops != 0 {
		log.Fatal("-drops needs -deliver lossy")
	}
	if *scenarioName != "" {
		runScenario(ctx, *scenarioName, *rowID, *exploreDepth, *workers, *sym,
			*table, *tableMB, *spill, deliverOpts)
		return
	}
	if *exploreDepth >= 0 {
		// Exploration covers every schedule up to the depth bound; the
		// single-run and batch flags have no meaning there. -workers does:
		// it sets how many goroutines the exploration walk spreads across.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sched", "seed", "crash", "trace", "max-steps", "batch":
				log.Fatalf("-%s is not supported with -explore (exploration covers every schedule up to the depth bound)", f.Name)
			}
		})
		workersSet := false
		flag.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
		mode, err := repro.ParseTableMode(*table)
		if err != nil {
			log.Fatal(err)
		}
		// Guard the MiB->bytes shift: a negative cap is meaningless and a
		// cap above MaxInt64>>20 MiB would overflow into one.
		if *tableMB < 0 || *tableMB > math.MaxInt64>>20 {
			log.Fatalf("-table-mb %d out of range [0, %d]", *tableMB, int64(math.MaxInt64>>20))
		}
		runExplore(ctx, *rowID, inputs, *l, *exploreDepth, *workers, workersSet, *sym,
			mode, *tableMB<<20, *spill, deliverOpts, false)
		return
	}
	if *sym {
		log.Fatal("-sym only applies to -explore (it keys the exploration's seen-state table)")
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "table", "table-mb", "spill":
			log.Fatalf("-%s only applies to -explore (it shapes the exploration's memory)", f.Name)
		}
	})
	if *batch > 0 {
		// Batch mode sweeps seeds 1..N under the random scheduler; the
		// single-run scheduling flags have no meaning there — reject them
		// rather than silently ignore them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sched", "seed", "crash", "trace":
				log.Fatalf("-%s is not supported with -batch (batch sweeps seeds 1..N under the random scheduler)", f.Name)
			}
		})
		runBatch(ctx, *rowID, inputs, *l, *batch, *workers, *maxSteps, deliverOpts)
		return
	}
	row, ok := core.RowByID(*rowID, *l)
	if !ok {
		log.Fatalf("unknown row %q; run spacehier for the list", *rowID)
	}
	if row.Build == nil {
		log.Fatalf("row %s has no constructive protocol", row.ID)
	}
	pr := row.Build(len(inputs))
	fmt.Printf("protocol: %s over %s\n", pr.Name, pr.Set)
	sys, err := pr.NewSystem(inputs, simDeliver...)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	var sched sim.Scheduler
	switch {
	case *schedName == "random":
		sched = sim.NewRandom(*seed)
	case *schedName == "rr":
		sched = &sim.RoundRobin{}
	case strings.HasPrefix(*schedName, "solo:"):
		pid, err := strconv.Atoi(strings.TrimPrefix(*schedName, "solo:"))
		if err != nil {
			log.Fatalf("bad solo pid: %v", err)
		}
		sched = sim.Solo{PID: pid}
	default:
		log.Fatalf("unknown scheduler %q", *schedName)
	}
	if *crash > 0 {
		sched = sim.NewRandomCrash(sched, *crash, *seed+1)
	}

	if *trace {
		for {
			pid := sched.Next(sys)
			if pid < 0 || sys.Steps() >= *maxSteps {
				break
			}
			st, err := sys.Step(pid)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%6d  p%-2d %v\n", sys.Steps(), st.PID, st.Info)
		}
	} else if _, err := sys.RunContext(ctx, sched, *maxSteps); err != nil {
		log.Fatal(err)
	}

	res := sys.Result()
	if err := res.CheckConsensus(inputs); err != nil {
		log.Fatalf("SAFETY VIOLATION: %v", err)
	}
	fmt.Printf("result: %v\n", res)
	st := sys.Mem().Stats()
	fmt.Printf("space: %d locations touched (declared %s), %d steps, widest value %d bits\n",
		st.Footprint(), declared(pr.Locations, pr.Unbounded), st.Steps, st.MaxBits)
	lo, up := core.SP(row, len(inputs))
	fmt.Printf("paper bounds at n=%d: lower %s, upper %s\n",
		len(inputs), bound(lo), bound(up))
}

// runScenario explores one portfolio scenario from its planted
// configuration and enforces its expected verdict; extra delivery options
// sweep the planted behavior across network adversaries.
func runScenario(ctx context.Context, name, rowID string, depth, workers int, sym bool,
	table string, tableMB int64, spill int, deliverOpts []repro.CompileOption) {
	var info *repro.ScenarioInfo
	for _, si := range repro.Scenarios() {
		if si.Name == name {
			si := si
			info = &si
			break
		}
	}
	if info == nil {
		var names []string
		for _, si := range repro.Scenarios() {
			names = append(names, si.Name)
		}
		log.Fatalf("unknown scenario %q (want one of %s)", name, strings.Join(names, ", "))
	}
	workersSet := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "inputs", "l", "sched", "seed", "crash", "trace", "max-steps", "batch":
			log.Fatalf("-%s is not supported with -scenario (the scenario fixes the protocol, inputs, and faults)", f.Name)
		case "row":
			if rowID != "MP.QSC" {
				log.Fatalf("-scenario applies to row MP.QSC, not %s", rowID)
			}
		case "workers":
			workersSet = true
		}
	})
	mode, err := repro.ParseTableMode(table)
	if err != nil {
		log.Fatal(err)
	}
	if tableMB < 0 || tableMB > math.MaxInt64>>20 {
		log.Fatalf("-table-mb %d out of range [0, %d]", tableMB, int64(math.MaxInt64>>20))
	}
	if depth < 0 {
		depth = info.Depth // the portfolio's declared verdict depth
	}
	fmt.Printf("scenario %s: %s\n", info.Name, info.Description)
	copts := append([]repro.CompileOption{repro.WithScenario(name)}, deliverOpts...)
	runExplore(ctx, "MP.QSC", info.Inputs, 0, depth, workers, workersSet, sym,
		mode, tableMB<<20, spill, copts, info.WantViolation)
}

// runExplore model-checks one row's protocol over every interleaving up to
// depth, reporting the explored envelope and any violation. With workersSet
// the exploration runs on the parallel work-stealing explorer; with sym the
// seen-state table merges configurations equal up to location/process
// symmetry; mode/tableBytes/spill shape the exploration's memory (hash
// compaction, bitstate, disk-spilled frontier). copts extends the handle's
// compilation (delivery adversaries, scenarios); with wantViolation the run
// must find a planted safety violation instead of verifying safe.
func runExplore(ctx context.Context, rowID string, inputs []int, l, depth, workers int, workersSet, sym bool,
	mode repro.TableMode, tableBytes int64, spill int, copts []repro.CompileOption, wantViolation bool) {
	if l > 0 {
		copts = append([]repro.CompileOption{repro.BufferCap(l)}, copts...)
	}
	p, err := repro.Compile(rowID, len(inputs), copts...)
	if err != nil {
		log.Fatal(err)
	}
	var opts []repro.VerifyOption
	if workersSet {
		opts = append(opts, repro.Workers(workers))
	}
	if sym {
		opts = append(opts, repro.WithSymmetry())
	}
	if mode != repro.TableExact {
		opts = append(opts, repro.WithTable(mode))
	}
	if tableBytes > 0 {
		opts = append(opts, repro.WithTableBytes(tableBytes))
	}
	if spill > 0 {
		opts = append(opts, repro.WithSpillFrontier(spill, ""))
	}
	start := time.Now()
	rep, err := p.Verify(ctx, inputs, depth, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explored %s (n=%d) to depth %d in %v\n",
		rowID, len(inputs), depth, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  %d configurations expanded (%d distinct), %d maximal schedules, %d deduplicated, decided values %v\n",
		rep.States, rep.DistinctStates, rep.Runs, rep.Deduped, rep.DecidedValues)
	fmt.Printf("  memory: %s table %.1f MiB (%.1f%% occupied)", mode,
		float64(rep.Mem.TableBytes)/(1<<20), 100*rep.Mem.TableOccupancy)
	fmt.Printf(", peak frontier %d", rep.Mem.PeakFrontier)
	if rep.Mem.SpilledBatches > 0 {
		fmt.Printf(" (%d resident), %d batches spilled to disk",
			rep.Mem.PeakResident, rep.Mem.SpilledBatches)
	}
	fmt.Println()
	if rep.UnderApprox {
		fmt.Printf("  under-approximation: fingerprint merges may have hidden states (P[any false merge] <= %.2e)\n",
			rep.FalseMergeProb)
	}
	if rep.Truncated {
		fmt.Println("  (truncated by the run cap)")
	}
	if wantViolation {
		// A scenario with a planted Byzantine attack: the exploration
		// proving the attack reachable is the expected outcome.
		if len(rep.Violations) == 0 {
			log.Fatalf("planted violation not found within depth %d", depth)
		}
		fmt.Printf("  planted violation found (expected): %s\n", rep.Violations[0])
		return
	}
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			log.Printf("SAFETY VIOLATION: %s", v)
		}
		log.Fatalf("%d violations", len(rep.Violations))
	}
	fmt.Println("  safe: agreement and validity hold over the explored envelope")
}

// runBatch sweeps seeds 1..n of one compiled handle in parallel and prints
// the decision distribution with aggregate step throughput.
func runBatch(ctx context.Context, rowID string, inputs []int, l, n, workers int, maxSteps int64,
	copts []repro.CompileOption) {
	p, err := repro.Compile(rowID, len(inputs), append([]repro.CompileOption{repro.BufferCap(l)}, copts...)...)
	if err != nil {
		log.Fatal(err)
	}
	specs := make([]repro.RunSpec, n)
	for i := range specs {
		specs[i] = repro.RunSpec{Inputs: inputs, Seed: int64(i + 1)}
	}
	opts := []repro.BatchOption{repro.Workers(workers)}
	if maxSteps > 0 {
		// -max-steps 0 keeps the library default.
		opts = append(opts, repro.MaxSteps(maxSteps))
	}
	start := time.Now()
	outs := p.SolveBatch(ctx, specs, opts...)
	elapsed := time.Since(start)

	decisions := make(map[int]int)
	var totalSteps int64
	failures := 0
	for _, ro := range outs {
		if ro.Err != nil {
			failures++
			log.Printf("seed %d: %v", ro.Spec.Seed, ro.Err)
			continue
		}
		decisions[ro.Outcome.Value]++
		totalSteps += ro.Outcome.Steps
	}
	fmt.Printf("batch: %d runs of %s (n=%d) in %v, %d failed\n",
		n, rowID, len(inputs), elapsed.Round(time.Millisecond), failures)
	var values []int
	for v := range decisions {
		values = append(values, v)
	}
	sort.Ints(values)
	for _, v := range values {
		fmt.Printf("  decided %d: %d runs\n", v, decisions[v])
	}
	fmt.Printf("total steps: %d (%.1f million steps/sec aggregate)\n",
		totalSteps, float64(totalSteps)/elapsed.Seconds()/1e6)
	if failures > 0 {
		log.Fatalf("%d of %d runs failed", failures, n)
	}
}

func declared(locs int, unbounded bool) string {
	if unbounded {
		return "unbounded"
	}
	return strconv.Itoa(locs)
}

func bound(v int) string {
	if v == core.Unbounded {
		return "∞"
	}
	return strconv.Itoa(v)
}
