package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/explore"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// probeBudget bounds each timing loop of the layer probes.
const probeBudget = 400 * time.Millisecond

// solveProbePasses is how many passes over solve-table's (handle, inputs)
// pairs the solve probe makes; each operation leaves four spans.
const solveProbePasses = 4

// prober runs the layer probes of a traced run. Every timed call is a span
// on the tracer; the per-layer figures are read back from the spans' self
// times, so a probe and the trace file always agree.
type prober struct {
	cfg config
	tr  *tracer
	out *loadResult
	ms  map[string]metric
	// raw per-layer figures later probes combine
	stepNsExplore, forksPerState float64
	// paths holds, per workload, each probed operation's blocking path
	// below the handle, in ms; the accounting adds the handle's own time.
	paths map[string][]float64
}

func (p *prober) set(name string, v float64, unit string) { p.ms[name] = metric{v, unit} }

// span times f as one span covering count calls.
func (p *prober) span(name string, count int64, f func()) {
	id := p.tr.begin(name, -1, -1)
	f()
	p.tr.end(id, count)
}

// check counts one probe operation, failed when err is set.
func (p *prober) check(err error) {
	p.out.attempted++
	if err != nil {
		p.out.fail(err)
	}
}

// stat is the self time per call of a span name, in nanoseconds.
func (p *prober) stat(name string) float64 {
	return byName(p.tr.spans)[name].nsPerCall()
}

// until repeats f until the probe budget is spent (at least once).
func until(f func()) {
	for start := time.Now(); ; {
		f()
		if time.Since(start) >= probeBudget {
			return
		}
	}
}

// layerMetrics runs every layer probe. The prober it returns holds the
// per-layer metrics and the per-operation paths the accounting uses.
func layerMetrics(cfg config, tr *tracer, out *loadResult) (*prober, error) {
	p := &prober{cfg: cfg, tr: tr, out: out, ms: make(map[string]metric), paths: make(map[string][]float64)}
	for _, probe := range []func() error{p.solveLayers, p.forkLayers, p.mpStep, p.exploreLayers, p.serveLayers} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// mark returns the index the next span will take.
func (p *prober) mark() int32 {
	p.tr.mu.Lock()
	defer p.tr.mu.Unlock()
	return int32(len(p.tr.spans))
}

// sinceNs is the summed duration of the spans recorded since mark first:
// the replica of one handle call. The handle's own time is the call minus
// its replica; the probes report its median over operations, because one
// GC or one stall on either side would swamp a mean of such small
// differences.
func (p *prober) sinceNs(first int32) int64 {
	p.tr.mu.Lock()
	defer p.tr.mu.Unlock()
	var ns int64
	for _, s := range p.tr.spans[first:] {
		ns += s.End - s.Start
	}
	return ns
}

// lastNs is the duration of the span recorded last.
func (p *prober) lastNs() int64 {
	p.tr.mu.Lock()
	defer p.tr.mu.Unlock()
	s := p.tr.spans[len(p.tr.spans)-1]
	return s.End - s.Start
}

// handleFactory mirrors a handle's run factory for inputs in: a fork of a
// pooled pristine snapshot when the row's processes fork natively, a fresh
// construction otherwise.
func handleFactory(h *repro.Protocol, in []int, pool *sim.Pool) (explore.Factory, error) {
	build := func() (*sim.System, error) { return h.Row().Build(h.N()).NewSystem(in) }
	root, err := build()
	if err != nil {
		return nil, err
	}
	defer root.Close()
	if !root.ForksNatively() {
		return build, nil
	}
	snap, err := root.Fork()
	if err != nil {
		return nil, err
	}
	snap.SetPool(pool)
	return snap.Fork, nil
}

// solveLayers probes solve-table's own (row, inputs, seed) runs: the
// handle's Solve next to a replica of its run — fork or build, the step
// loop, close — and the instruction streams those runs execute.
func (p *prober) solveLayers() error {
	ld, err := setupSolveTable(p.cfg)
	if err != nil {
		return err
	}
	s := ld.(*solveTable)
	ctx := context.Background()
	nspec := len(s.items) * solveVectors
	factories := make([]explore.Factory, nspec)
	var pool sim.Pool
	for i := range factories {
		it, in, _ := s.spec(i)
		if factories[i], err = handleFactory(it.p, in, &pool); err != nil {
			return err
		}
	}
	var solves, steps int64
	var self []float64 // per operation: Solve minus its replica, in µs
	handleNs := make([]int64, nspec)
	outs := make([]*repro.Outcome, nspec)
	for pass := 0; pass < solveProbePasses; pass++ {
		// A pass of the handle's calls, then a pass of their replicas,
		// each in the workload's own order, so that neither runs on the
		// other's warm caches.
		for j := range outs {
			it, in, seed := s.spec(pass*nspec + j)
			p.span("repro.Solve", 1, func() { outs[j], err = it.p.Solve(ctx, in, repro.Seed(seed)) })
			handleNs[j] = p.lastNs()
			if err != nil {
				p.check(err)
				outs[j] = nil
			}
		}
		for j, outc := range outs {
			if outc == nil {
				continue
			}
			i := pass*nspec + j
			it, _, seed := s.spec(i)
			first := p.mark()
			var sys *sim.System
			p.span("sim.Fork.solve", 1, func() { sys, err = factories[j]() })
			if err != nil {
				p.check(err)
				continue
			}
			sched := sim.NewRandom(seed)
			var n int64
			id := p.tr.begin("sim.Step", -1, int64(i))
			for pid := sched.Next(sys); pid >= 0; pid = sched.Next(sys) {
				if _, err = sys.Step(pid); err != nil {
					break
				}
				n++
			}
			p.tr.end(id, n)
			p.span("sim.Close.solve", 1, sys.Close)
			if err == nil && n != outc.Steps {
				err = fmt.Errorf("%s n=%d seed %d: replica took %d steps, Solve %d", it.p.ID(), it.p.N(), seed, n, outc.Steps)
			}
			p.check(err)
			solves++
			steps += outc.Steps
			replica := p.sinceNs(first)
			self = append(self, float64(handleNs[j]-replica)/1e3)
			p.paths["solve-table"] = append(p.paths["solve-table"], float64(replica)/1e6)
		}
	}
	st := byName(p.tr.spans)
	p.set("repro.solve_self_us", median(self), "us")
	p.set("sim.step_ns", st["sim.Step"].nsPerCall(), "ns")
	p.set("sim.steps_per_op", float64(steps)/float64(solves), "count")
	p.set("sim.steps_per_s", float64(steps)/(float64(st["repro.Solve"].totalNs)/1e9), "1/s")

	// Allocations per Solve, over one pass of the specs.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < nspec; i++ {
		it, in, seed := s.spec(i)
		_, err := it.p.Solve(ctx, in, repro.Seed(seed))
		p.check(err)
	}
	runtime.ReadMemStats(&m1)
	p.set("repro.allocs_per_solve", float64(m1.Mallocs-m0.Mallocs)/float64(nspec), "count")

	return p.applyLayer(s)
}

// applyLayer replays the instruction streams that sim.WithTrace records
// from solve-table's schedules through Memory.Apply on a fresh copy of the
// initial memory; the final fingerprint must match the traced run's.
func (p *prober) applyLayer(s *solveTable) error {
	type stream struct {
		m0    *machine.Memory
		steps []sim.StepInfo
		fp    uint64
	}
	var streams []stream
	for i := 0; i < len(s.items)*solveVectors; i++ {
		it, in, seed := s.spec(i)
		sys, err := it.p.Row().Build(it.p.N()).NewSystem(in, sim.WithTrace())
		if err != nil {
			return err
		}
		m0 := sys.Mem().Clone()
		_, err = sys.Run(sim.NewRandom(seed), 50_000_000)
		if err != nil {
			sys.Close()
			return err
		}
		streams = append(streams, stream{m0: m0, steps: slices.Clone(sys.Trace()), fp: sys.Mem().Fingerprint64()})
		sys.Close()
	}
	var applyErr error
	until(func() {
		for _, st := range streams {
			m := st.m0.Clone()
			p.span("machine.Apply", int64(len(st.steps)), func() {
				for _, sp := range st.steps {
					var err error
					if sp.Info.Multi != nil {
						err = m.MultiAssign(sp.Info.Multi)
					} else {
						_, err = m.Apply(sp.Info.Loc, sp.Info.Op, sp.Info.Args...)
					}
					if err != nil && applyErr == nil {
						applyErr = err
					}
				}
			})
			if m.Fingerprint64() != st.fp && applyErr == nil {
				applyErr = fmt.Errorf("replayed memory fingerprint %x, traced run %x", m.Fingerprint64(), st.fp)
			}
			p.check(applyErr)
		}
	})
	p.set("machine.apply_ns", p.stat("machine.Apply"), "ns")
	return nil
}

// forkConfigs are the warm mid-exploration configurations the fork, key
// and memory probes run on: natively forking rows and result-replay rows,
// each driven a few round-robin steps from the initial configuration.
var forkConfigs = []struct {
	row    string
	n      int
	native bool
}{
	{"T1.9", 3, true}, {"T1.7", 3, true}, {"T1.12", 3, true},
	{"T1.3", 3, false}, {"T1.5", 3, false}, {"T1.6", 3, false},
}

const (
	forkWarmSteps = 6
	// forkBatch forks are held at once, as an explorer's frontier holds
	// them; keyBatch calls of the cheaper probes share one span.
	forkBatch = 512
	keyBatch  = 4096
)

func (p *prober) forkLayers() error {
	var pool sim.Pool
	var buf []byte
	var sc sim.SymScratch
	for _, fc := range forkConfigs {
		h, err := repro.Compile(fc.row, fc.n)
		if err != nil {
			return err
		}
		sys, err := h.Row().Build(fc.n).NewSystem(portfolioInputs(fc.n))
		if err != nil {
			return err
		}
		rr := &sim.RoundRobin{}
		for k := 0; k < forkWarmSteps; k++ {
			if pid := rr.Next(sys); pid >= 0 {
				if _, err := sys.Step(pid); err != nil {
					return err
				}
			}
		}
		mid, err := sys.Fork()
		sys.Close()
		if err != nil {
			return err
		}
		mid.SetPool(&pool)
		kind := "native"
		if !fc.native {
			kind = "replay"
		}
		forks := make([]*sim.System, forkBatch)
		until(func() {
			p.span("sim.Fork."+kind, forkBatch, func() {
				for k := range forks {
					if forks[k], err = mid.Fork(); err != nil {
						break
					}
				}
			})
			if err != nil {
				return
			}
			// One step on each fork: the per-state step of an exploration.
			p.span("sim.Step.fork", forkBatch, func() {
				for _, f := range forks {
					if pid := rr.Next(f); pid >= 0 {
						f.Step(pid)
					}
				}
			})
			p.span("sim.Close", forkBatch, func() {
				for _, f := range forks {
					f.Close()
				}
			})
		})
		p.check(err)
		var ok bool
		until(func() {
			p.span("sim.AppendStateKey", keyBatch, func() {
				for k := 0; k < keyBatch; k++ {
					buf, ok = mid.AppendStateKey(buf[:0])
				}
			})
			p.span("sim.StateHash128", keyBatch, func() {
				for k := 0; k < keyBatch; k++ {
					_, ok = mid.StateHash128()
				}
			})
			p.span("sim.AppendSymStateKey", keyBatch, func() {
				for k := 0; k < keyBatch; k++ {
					buf, ok = mid.AppendSymStateKey(buf[:0], &sc)
				}
			})
		})
		if fc.native && !ok {
			p.check(fmt.Errorf("%s: no state key", fc.row))
		}
		dst := mid.Mem().Clone()
		var fp uint64
		until(func() {
			p.span("machine.CloneInto", keyBatch, func() {
				for k := 0; k < keyBatch; k++ {
					mid.Mem().CloneInto(dst)
				}
			})
			p.span("machine.SymFingerprint64", keyBatch, func() {
				for k := 0; k < keyBatch; k++ {
					fp ^= mid.Mem().SymFingerprint64()
				}
			})
		})
		p.check(nil)
		mid.Close()
	}
	p.set("sim.fork_ns.native", p.stat("sim.Fork.native"), "ns")
	p.set("sim.fork_ns.replay", p.stat("sim.Fork.replay"), "ns")
	p.set("sim.close_ns", p.stat("sim.Close"), "ns")
	p.set("sim.statekey_ns", p.stat("sim.AppendStateKey"), "ns")
	p.set("sim.statehash_ns", p.stat("sim.StateHash128"), "ns")
	p.set("sim.symkey_ns", p.stat("sim.AppendSymStateKey"), "ns")
	p.set("machine.clone_ns", p.stat("machine.CloneInto"), "ns")
	p.set("machine.symfp_ns", p.stat("machine.SymFingerprint64"), "ns")
	p.stepNsExplore = p.stat("sim.Step.fork")
	return nil
}

// mpStepLimit bounds each random run of the message-passing step probe; a
// random schedule of MP.QSC need not terminate.
const mpStepLimit = 2000

// mpStep times System.Step on the MP.QSC scenario configurations under a
// random schedule, delivery pids included.
func (p *prober) mpStep() error {
	seed := p.cfg.seed
	until(func() {
		for _, info := range repro.Scenarios() {
			sc, ok := scenario.ByName(info.Name)
			if !ok {
				p.check(fmt.Errorf("scenario %s not found", info.Name))
				continue
			}
			sys, err := sc.System()
			if err != nil {
				p.check(err)
				continue
			}
			seed++
			sched := sim.NewRandom(seed)
			var n int64
			id := p.tr.begin("sim.Step.mp", -1, -1)
			for pid := sched.Next(sys); pid >= 0 && n < mpStepLimit; pid = sched.Next(sys) {
				if _, err = sys.Step(pid); err != nil {
					break
				}
				n++
			}
			p.tr.end(id, n)
			sys.Close()
			// The Byzantine scenarios' processes may fail by design; a
			// failed step ends the run and is not a benchmark failure.
			p.check(nil)
		}
	})
	p.set("sim.step_ns.mp", p.stat("sim.Step.mp"), "ns")
	return nil
}

// exploreLayers probes the explorer: the counts of one pass over both
// verify portfolios, explore.Exhaustive called directly under each seen-state
// table, the handle's own cost around it, and the parallel walk's speedup.
func (p *prober) exploreLayers() error {
	ctx := context.Background()
	shmLd, err := setupVerifySHM(p.cfg)
	if err != nil {
		return err
	}
	mpLd, err := setupVerifyMP(p.cfg)
	if err != nil {
		return err
	}
	shm, mp := shmLd.(*verifyLoad), mpLd.(*verifyLoad)

	var states, deduped, distinct, runs, ops, verifyNs int64
	var shmStates, forks, mallocs, tableBytes, peak, spilled int64
	var m0, m1 runtime.MemStats
	for _, l := range []*verifyLoad{shm, mp} {
		for i := range l.insts {
			in := &l.insts[i]
			f0 := sim.ForkTally()
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			var rep *repro.VerifyReport
			p.span("repro.Verify", 1, func() { rep, err = in.p.Verify(ctx, in.inputs, in.depth, in.opts...) })
			verifyNs += int64(time.Since(t0))
			runtime.ReadMemStats(&m1)
			if err == nil {
				err = in.gate(rep)
			}
			p.check(err)
			if err != nil {
				continue
			}
			ops++
			states += rep.States
			deduped += rep.Deduped
			distinct += rep.DistinctStates
			runs += rep.Runs
			if l == shm {
				shmStates += rep.States
				forks += sim.ForkTally() - f0
				mallocs += int64(m1.Mallocs - m0.Mallocs)
				tableBytes += rep.Mem.TableBytes
				peak = max(peak, rep.Mem.PeakFrontier)
				spilled += rep.Mem.SpilledBatches
			}
		}
	}
	if ops == 0 || shmStates == 0 {
		return fmt.Errorf("explore probe: no verdict succeeded")
	}
	p.set("explore.states_per_op", float64(states)/float64(ops), "count")
	p.set("explore.deduped_per_op", float64(deduped)/float64(ops), "count")
	p.set("explore.distinct_per_op", float64(distinct)/float64(ops), "count")
	p.set("explore.runs_per_op", float64(runs)/float64(ops), "count")
	p.set("explore.dedup_ratio", float64(deduped)/float64(states), "ratio")
	p.set("explore.states_per_s", float64(states)/(float64(verifyNs)/1e9), "1/s")
	p.forksPerState = float64(forks) / float64(shmStates)
	p.set("sim.forks_per_state", p.forksPerState, "count")
	p.set("explore.table_bytes_per_state", float64(tableBytes)/float64(shmStates), "bytes")
	p.set("explore.allocs_per_state", float64(mallocs)/float64(shmStates), "count")
	p.set("explore.peak_frontier", float64(peak), "count")
	p.set("explore.spill_batches", float64(spilled), "count")

	if err := p.tables(ctx); err != nil {
		return err
	}
	if err := p.verifySelf(ctx, shm); err != nil {
		return err
	}
	return p.parSpeedup(ctx, mp)
}

// tableInstance is the fixed instance explore.Exhaustive runs on under
// each seen-state table.
var tableInstance = shmSpec{row: "T1.9", n: 3, depth: 10}

// exploreOptions are the options a handle's sequential Verify passes to the
// explorer for sp.
func exploreOptions(sp shmSpec, spillDir string) (explore.Options, error) {
	table, err := explore.ParseTable(sp.table.String())
	return explore.Options{
		MaxDepth: sp.depth, Strategy: explore.StrategyFork, Dedup: true, Symmetry: sp.sym,
		Table: table, TableBytes: sp.bytes, SpillNodes: sp.spill, SpillDir: spillDir,
	}, err
}

func (p *prober) tables(ctx context.Context) error {
	h, err := repro.Compile(tableInstance.row, tableInstance.n)
	if err != nil {
		return err
	}
	var pool sim.Pool
	f, err := handleFactory(h, portfolioInputs(tableInstance.n), &pool)
	if err != nil {
		return err
	}
	for _, mode := range []repro.TableMode{repro.TableExact, repro.TableCompact, repro.TableCompact128, repro.TableBitstate} {
		sp := tableInstance
		sp.table = mode
		if mode == repro.TableBitstate {
			sp.bytes = 1 << 20
		}
		opts, err := exploreOptions(sp, p.cfg.tmp)
		if err != nil {
			return err
		}
		name := "explore.Exhaustive." + mode.String()
		until(func() {
			var rep *explore.Report
			id := p.tr.begin(name, -1, -1)
			rep, err = explore.Exhaustive(ctx, f, opts)
			var n int64
			if err == nil {
				n = rep.States
			}
			p.tr.end(id, n)
			p.check(err)
		})
		p.set("explore.ns_per_state."+mode.String(), p.stat(name), "ns")
	}
	// What is left of a state's cost once its fork, close, key and step
	// are taken out: the walk itself and the table claim.
	perState := p.forksPerState*(p.ms["sim.fork_ns.native"].Value+p.ms["sim.close_ns"].Value) +
		p.ms["sim.statekey_ns"].Value + p.stepNsExplore
	p.set("explore.self_ns_per_state", p.ms["explore.ns_per_state.exact"].Value-perState, "ns")
	return nil
}

// verifySelf times each verify-shm instance through the handle and through
// explore.Exhaustive with the handle's factory and options; the difference
// is the handle's own share of a verdict.
func (p *prober) verifySelf(ctx context.Context, shm *verifyLoad) error {
	var pool sim.Pool
	factories := make([]explore.Factory, len(shmPortfolio))
	options := make([]explore.Options, len(shmPortfolio))
	for i, sp := range shmPortfolio {
		in := &shm.insts[i]
		var err error
		if factories[i], err = handleFactory(in.p, in.inputs, &pool); err != nil {
			return err
		}
		if options[i], err = exploreOptions(sp, p.cfg.tmp); err != nil {
			return err
		}
	}
	var self []float64 // per instance: handle Verify minus Exhaustive, in µs
	handleNs := make([]int64, len(shm.order))
	until(func() {
		// A pass through the handle, then a pass straight into the
		// explorer, each in the workload's order, so that neither runs on
		// the other's warm caches.
		for j, idx := range shm.order {
			in := &shm.insts[idx]
			var err error
			p.span("repro.Verify.shm", 1, func() { _, err = in.p.Verify(ctx, in.inputs, in.depth, in.opts...) })
			handleNs[j] = p.lastNs()
			p.check(err)
		}
		for j, idx := range shm.order {
			var err error
			first := p.mark()
			p.span("explore.Exhaustive.shm", 1, func() { _, err = explore.Exhaustive(ctx, factories[idx], options[idx]) })
			p.check(err)
			replica := p.sinceNs(first)
			self = append(self, float64(handleNs[j]-replica)/1e3)
			p.paths["verify-shm"] = append(p.paths["verify-shm"], float64(replica)/1e6)
		}
	})
	p.set("repro.verify_self_us", median(self), "us")
	return nil
}

// parSpeedup compares the verify-mp instances' sequential verdicts, the
// workload's blocking path, with Workers(nproc) verdicts on one P per CPU.
func (p *prober) parSpeedup(ctx context.Context, mp *verifyLoad) error {
	until(func() {
		for i := range mp.insts {
			in := &mp.insts[i]
			var err error
			p.span("repro.Verify.seq", 1, func() { _, err = in.p.Verify(ctx, in.inputs, in.depth) })
			p.check(err)
			p.paths["verify-mp"] = append(p.paths["verify-mp"], float64(p.lastNs())/1e6)
		}
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	workers := repro.Workers(runtime.NumCPU())
	until(func() {
		for i := range mp.insts {
			in := &mp.insts[i]
			var err error
			p.span("repro.Verify.par", 1, func() { _, err = in.p.Verify(ctx, in.inputs, in.depth, workers) })
			p.check(err)
		}
	})
	p.set("explore.par_speedup", p.stat("repro.Verify.seq")/p.stat("repro.Verify.par"), "ratio")
	return nil
}

// route names the handler a request reached; a POST /verify is a hit when
// it is answered at once and a miss when it is queued.
func route(method, path string, code int) string {
	switch {
	case path == "/solve":
		return "solve"
	case path == "/solve/batch":
		return "batch"
	case path == "/verify" && code == http.StatusAccepted:
		return "verify_miss"
	case path == "/verify":
		return "verify_hit"
	case method == "GET" && strings.HasPrefix(path, "/jobs/"):
		return "job_get"
	}
	return "other"
}

// serveBurst is the length of the open-loop burst the serve probe offers
// at serveRate to read the caches' hit ratios and the job timings.
const serveBurst = 2 * time.Second

// serveLayers probes the service: each handler on the workload's own
// request bodies through Handler().ServeHTTP, the client-observed /solve
// latency over loopback, and a short open-loop burst of the mix.
func (p *prober) serveLayers() error {
	ld, err := setupServeMix(p.cfg)
	if err != nil {
		return err
	}
	m := ld.(*serveMix)
	defer m.close()
	h := m.srv.Handler()
	viaHandler := func(method, path string, body []byte) (int, []byte, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		p.tr.add("serve.handler."+route(method, path, rec.Code), start, -1, -1, 1)
		return rec.Code, rec.Body.Bytes(), nil
	}
	until(func() {
		for k := range kindNames {
			for i := 0; i < m.count(reqKind(k)); i++ {
				p.check(m.do(viaHandler, reqKind(k), i, nil, -1))
			}
		}
	})
	for _, k := range []string{"solve", "batch", "verify_hit", "verify_miss", "job_get"} {
		p.set("serve.handler_us."+k, p.stat("serve.handler."+k)/1e3, "us")
	}
	until(func() {
		for i := range m.solves {
			var err error
			p.span("http.solve.client", 1, func() { err = m.expectBody(m.call, "/solve", &m.solves[i]) })
			p.check(err)
		}
	})
	p.set("serve.transport_us", (p.stat("http.solve.client")-p.stat("serve.handler.solve"))/1e3, "us")

	s0, err := m.status()
	if err != nil {
		return err
	}
	out := m.run(serveBurst, nil)
	s1, err := m.status()
	if err != nil {
		return err
	}
	p.out.attempted += out.attempted
	p.out.failed += out.failed
	p.out.errs = append(p.out.errs, out.errs...)
	ratio := func(h0, m0, h1, m1 int64) float64 {
		if d := (h1 - h0) + (m1 - m0); d > 0 {
			return float64(h1-h0) / float64(d)
		}
		return 0
	}
	p.set("serve.handle_cache_hit_ratio", ratio(s0.HandleCache.Hits, s0.HandleCache.Misses, s1.HandleCache.Hits, s1.HandleCache.Misses), "ratio")
	p.set("serve.result_cache_hit_ratio", ratio(s0.ResultCache.Hits, s0.ResultCache.Misses, s1.ResultCache.Hits, s1.ResultCache.Misses), "ratio")
	var wait, run []float64
	m.mu.Lock()
	for _, jt := range m.jobTimes {
		wait = append(wait, float64(jt.wait)/1e6)
		run = append(run, float64(jt.run)/1e6)
	}
	m.mu.Unlock()
	p.set("serve.job_wait_ms", median(wait), "ms")
	p.set("serve.job_run_ms", median(run), "ms")
	p.set("serve.gen_late_ms", out.notes["gen_late_p99_ms"].(float64), "ms")
	return nil
}
