package repro

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// ErrBadInput reports invalid consensus inputs: an empty input vector, a
// vector whose length does not match the compiled n, a value outside the
// handle's value domain [0, Values()) — which is [0, n) unless compiled
// WithValues — or a WithValues request the row cannot satisfy. It is
// detected up front, before any protocol construction, and unwraps with
// errors.Is.
var ErrBadInput = errors.New("repro: invalid inputs")

// Protocol is a compiled handle for one Table 1 row at a fixed number of
// processes: the row is resolved once, the upper-bound protocol is built
// once, and every operation of the package hangs off the handle — Solve,
// SolveBatch, SolveSeq, Verify, Steps, Bounds. A handle is immutable after
// Compile and safe for concurrent use; SolveBatch drives many runs of one
// handle across a worker pool.
//
// The concurrency contract is unrestricted: any number of goroutines may
// call any mix of the handle's verbs — Solve, SolveBatch, SolveSeq, Verify,
// Steps, Bounds, and the metadata accessors — on one handle at the same
// time, without external locking. Every run gets its own memory, processes,
// and scheduler (forked from the handle's pristine snapshots, which are
// never stepped); the only shared mutable state is the snapshot cache and
// the system pool, both internally synchronized. This is what lets a server
// share one compiled handle across concurrent requests; the contract is
// race-hammered by TestConcurrentHandleVerbs.
//
// Handles amortize per-run setup: the first run on a given input vector
// builds a fresh system and, for rows whose processes are explicit forkable
// state machines (every row ported in internal/consensus/steppers.go),
// snapshots it in its pristine initial configuration. Subsequent runs on the
// same inputs fork that snapshot — O(locations + local state) — instead of
// re-resolving the row and rebuilding memory and processes, which is what
// makes seed sweeps over one handle measurably faster than per-run
// construction (see BenchmarkCompiledSolveSweep). The handle keeps one
// snapshot per distinct input vector, up to pristineCacheCap; runs on
// further vectors simply construct fresh systems.
type Protocol struct {
	row core.Row // already specialized for the compile-time buffer capacity
	n   int
	// build constructs a fresh protocol instance for a run — the row's
	// standard n-valued form, or its m-valued form under WithValues. nil
	// when the row has no constructive protocol.
	build func() *consensus.Protocol
	// pr is the compile-time protocol instance. It is used only for
	// metadata reads (Values, WaitFree, Name); runs build fresh instances
	// or fork a pristine snapshot, so no constructor state is shared
	// across concurrent runs. nil when the row has no constructive
	// protocol (Bounds still works).
	pr *consensus.Protocol
	// deliver is the compile-time delivery model for the message-passing
	// rows: set by WithDelivery, defaulted by WithScenario, applied to
	// every system the handle constructs. deliverSet gates it so the pure
	// shared-memory rows keep their exact historical construction path.
	deliver    sim.Delivery
	deliverSet bool
	// scen is the resolved scenario overlay (WithScenario): its crashes
	// are applied and its planted schedule prefix replayed in newRun, so
	// the pristine snapshot cache holds the prefixed configuration.
	scen *scenario.Scenario

	mu sync.Mutex
	// pristine caches one initial-configuration snapshot per input vector;
	// cached snapshots are never stepped after caching. For scenario
	// handles "initial" means the prefixed configuration: crashes applied,
	// planted schedule replayed.
	pristine map[string]*sim.System
	// pool recycles the per-run systems forked off the pristine snapshots:
	// a repeat Solve's fork/run/close cycle rebuilds a recycled System in
	// place instead of allocating one per run. Shared by all of the handle's
	// snapshots; safe for concurrent SolveBatch workers.
	pool sim.Pool
}

// pristineCacheCap bounds the handle's snapshot cache. Entries are never
// evicted — eviction under a mixed-input sweep would pay a fork+close per
// run without ever amortizing — so vectors beyond the cap run on plain
// per-run construction, exactly the pre-handle cost.
const pristineCacheCap = 8

// inputsKey encodes an input vector as the snapshot-cache key.
func inputsKey(inputs []int) string {
	buf := make([]byte, 0, 2*len(inputs))
	for _, in := range inputs {
		buf = binary.AppendVarint(buf, int64(in))
	}
	return string(buf)
}

// Compile resolves a Table 1 row (for example "T1.9" for two max-registers)
// for n processes and returns the reusable handle. Unknown rows report
// ErrUnknownRow; n < 1 and invalid options report ErrBadInput.
func Compile(rowID string, n int, opts ...CompileOption) (*Protocol, error) {
	c := compileConfig{l: defaultBufferCap}
	for _, o := range opts {
		o.applyCompile(&c)
	}
	if c.err != nil {
		return nil, c.err
	}
	row, ok := core.RowByID(rowID, c.l)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRow, rowID)
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: need at least one process, got n=%d", ErrBadInput, n)
	}
	p := &Protocol{row: row, n: n}
	switch {
	case c.valuesSet:
		if c.values < 1 {
			return nil, fmt.Errorf("%w: WithValues(%d) needs at least one value", ErrBadInput, c.values)
		}
		// The row id itself is valid, so this is not ErrUnknownRow: the
		// requested value domain is what the row cannot provide.
		if row.BuildValues == nil {
			return nil, fmt.Errorf("%w: row %s has no multi-valued form (WithValues)", ErrBadInput, rowID)
		}
		m := c.values
		p.build = func() *consensus.Protocol { return row.BuildValues(n, m) }
	case row.Build != nil:
		p.build = func() *consensus.Protocol { return row.Build(n) }
	}
	if p.build != nil {
		p.pr = p.build()
	}
	if c.scenarioSet {
		if rowID != "MP.QSC" {
			return nil, fmt.Errorf("%w: WithScenario applies to row MP.QSC, not %s", ErrBadInput, rowID)
		}
		if c.valuesSet {
			return nil, fmt.Errorf("%w: WithScenario fixes the scenario's protocol; WithValues cannot apply", ErrBadInput)
		}
		sc, ok := scenario.ByName(c.scenario)
		if !ok {
			return nil, fmt.Errorf("%w: unknown scenario %q (want one of %v)", ErrBadInput, c.scenario, scenario.Names())
		}
		if n != len(sc.Inputs) {
			return nil, fmt.Errorf("%w: scenario %s is defined for n=%d, handle compiled for n=%d",
				ErrBadInput, sc.Name, len(sc.Inputs), n)
		}
		p.scen = sc
		p.build = sc.Build
		p.pr = p.build()
		p.deliver, p.deliverSet = sc.Delivery, true
	}
	if c.deliverSet {
		if p.pr == nil || len(p.pr.Channels) == 0 {
			return nil, fmt.Errorf("%w: row %s has no message channels (WithDelivery)", ErrBadInput, rowID)
		}
		d, err := c.deliver.simDelivery(c.maxDrops)
		if err != nil {
			return nil, err
		}
		// An explicit WithDelivery overrides a scenario's default model —
		// the delivery-mode sweeps of the acceptance battery.
		p.deliver, p.deliverSet = d, true
	}
	return p, nil
}

// simDelivery maps the public delivery mode onto the simulator's model,
// rejecting out-of-range values up front.
func (m DeliveryMode) simDelivery(maxDrops int) (sim.Delivery, error) {
	switch m {
	case DeliveryOrdered:
		return sim.Delivery{Mode: sim.DeliverOrdered}, nil
	case DeliveryReorder:
		return sim.Delivery{Mode: sim.DeliverReorder}, nil
	case DeliveryLossy:
		return sim.Delivery{Mode: sim.DeliverLossy, MaxDrops: maxDrops}, nil
	}
	return sim.Delivery{}, fmt.Errorf("%w: invalid DeliveryMode(%d)", ErrBadInput, int(m))
}

// Values returns the number of distinct input values the handle accepts:
// inputs must lie in [0, Values()). It is N() unless the handle was
// compiled WithValues (or the row's protocol fixes another domain).
func (p *Protocol) Values() int {
	if p.pr != nil {
		return p.pr.Values
	}
	return p.n
}

// ID returns the compiled row's Table 1 identifier.
func (p *Protocol) ID() string { return p.row.ID }

// N returns the number of processes the handle is compiled for.
func (p *Protocol) N() int { return p.n }

// Row returns the compiled hierarchy row descriptor.
func (p *Protocol) Row() Row { return p.row }

// CacheKey returns a canonical identity string for the compiled handle: the
// (row, n, value domain, buffer capacity) tuple that determines every result
// the handle can produce. Two handles with equal CacheKeys are
// interchangeable — same protocol, same input domain, same bounds — so the
// key is a sound map key for caching layers that share or memoize handles
// (the reprod service's handle and verify-result caches). The format is
// "row=<id> n=<n> values=<m> l=<l>", with l the row's buffer capacity (0 for
// rows without buffers).
func (p *Protocol) CacheKey() string {
	return fmt.Sprintf("row=%s n=%d values=%d l=%d", p.row.ID, p.n, p.Values(), p.row.L)
}

// Bounds evaluates the paper's lower and upper bound on SP(I, n) at the
// compiled n (Unbounded = ∞).
func (p *Protocol) Bounds() (lower, upper int) {
	return core.SP(p.row, p.n)
}

// checkInputs validates an input vector against the compiled n and the
// protocol's value domain. The domain is the row's, not [0, n): a handle
// compiled WithValues(m) takes inputs in [0, m), for m above or below n.
func (p *Protocol) checkInputs(inputs []int) error {
	if len(inputs) == 0 {
		return fmt.Errorf("%w: no inputs", ErrBadInput)
	}
	if len(inputs) != p.n {
		return fmt.Errorf("%w: %d inputs for a %s handle compiled for n=%d",
			ErrBadInput, len(inputs), p.row.ID, p.n)
	}
	dom := p.Values()
	for i, in := range inputs {
		if in < 0 || in >= dom {
			return fmt.Errorf("%w: input %d of process %d outside [0, %d)",
				ErrBadInput, in, i, dom)
		}
	}
	return nil
}

// exploreTable maps the public table mode onto the explorer's enum,
// rejecting out-of-range values up front.
func (m TableMode) exploreTable() (explore.Table, error) {
	switch m {
	case TableExact:
		return explore.TableExact, nil
	case TableCompact:
		return explore.TableCompact, nil
	case TableCompact128:
		return explore.TableCompact128, nil
	case TableBitstate:
		return explore.TableBitstate, nil
	}
	return 0, fmt.Errorf("%w: invalid TableMode(%d)", ErrBadInput, int(m))
}

// errNoProtocol reports a run verb on a row without a constructive protocol.
func (p *Protocol) errNoProtocol() error {
	return fmt.Errorf("repro: row %s has no constructive protocol", p.row.ID)
}

// newRun materializes a fresh system at the protocol's initial
// configuration: a fork of the cached pristine snapshot when one exists for
// these inputs, a full construction otherwise (caching a snapshot for next
// time when the row's processes fork natively and the cache has room).
// Inputs must already be validated.
func (p *Protocol) newRun(inputs []int) (*sim.System, error) {
	key := inputsKey(inputs)
	p.mu.Lock()
	snap, cacheable := p.pristine[key], len(p.pristine) < pristineCacheCap
	p.mu.Unlock()
	if snap != nil {
		// Forking outside the lock keeps concurrent runs parallel: Fork
		// only reads the snapshot, cached snapshots are never stepped, and
		// the no-eviction cache means snap stays live for the handle's
		// lifetime.
		fk, err := snap.Fork()
		if err == nil {
			return fk, nil
		}
		// A failed fork falls back to full construction below.
	}
	// Build a fresh protocol instance per construction, exactly like the
	// pre-handle API: constructors stay free of cross-run sharing.
	sys, err := p.buildRun(inputs)
	if err != nil {
		return nil, err
	}
	if cacheable && sys.ForksNatively() {
		if fk, err := sys.Fork(); err == nil {
			p.mu.Lock()
			if p.pristine == nil {
				p.pristine = make(map[string]*sim.System)
			}
			if _, raced := p.pristine[key]; raced || len(p.pristine) >= pristineCacheCap {
				// Another run cached this vector first (or filled the
				// cache) between our check and now.
				p.mu.Unlock()
				fk.Close()
			} else {
				// Runs forked off this snapshot recycle through the handle's
				// pool; the snapshot itself is never stepped or closed.
				fk.SetPool(&p.pool)
				p.pristine[key] = fk
				p.mu.Unlock()
			}
		}
	}
	return sys, nil
}

// buildRun constructs one run's system from scratch: a fresh protocol
// instance under the compile-time delivery model, then — for scenario
// handles — the scenario's initial crashes and its planted schedule prefix.
// The prefixed configuration is what newRun snapshots, so scenario runs fork
// past the prefix replay too.
func (p *Protocol) buildRun(inputs []int) (*sim.System, error) {
	var opts []sim.SystemOption
	if p.deliverSet {
		opts = append(opts, sim.WithDelivery(p.deliver))
	}
	sys, err := p.build().NewSystem(inputs, opts...)
	if err != nil {
		return nil, err
	}
	if p.scen != nil {
		for _, pid := range p.scen.Crashes {
			sys.Crash(pid)
		}
		for i, pid := range p.scen.Prefix {
			if _, err := sys.Step(pid); err != nil {
				sys.Close()
				return nil, fmt.Errorf("repro: scenario %s prefix step %d (pid %d): %w",
					p.scen.Name, i, pid, err)
			}
		}
	}
	return sys, nil
}

// finishSolve checks a finished run and assembles its Outcome from a stats
// snapshot taken while the run's System was still alive (pooled systems are
// rebuilt after Close, invalidating their Memory).
func finishSolve(inputs []int, maxSteps int64, res *sim.Result, st machine.Stats) (*Outcome, error) {
	if err := res.CheckConsensus(inputs); err != nil {
		return nil, err
	}
	v, ok := res.AgreedValue()
	if !ok {
		return nil, fmt.Errorf("%w (%d steps)", ErrNoDecision, maxSteps)
	}
	return &Outcome{
		Value:     v,
		Footprint: st.Footprint(),
		Steps:     st.Steps,
		MaxBits:   st.MaxBits,
	}, nil
}

// Solve runs the compiled protocol on the given inputs — one per process,
// values in [0, Values()) — under a fair random schedule and returns the
// agreed value with space and step measurements. Long runs are cancellable
// through ctx; cancellation returns ctx.Err().
func (p *Protocol) Solve(ctx context.Context, inputs []int, opts ...SolveOption) (*Outcome, error) {
	c := p.solveConfig(opts)
	return p.solveOne(ctx, inputs, c.seed, c.maxSteps)
}

// solveOne is the shared single-run path of Solve, SolveBatch error
// pre-checks, and SolveSeq.
func (p *Protocol) solveOne(ctx context.Context, inputs []int, seed, maxSteps int64) (*Outcome, error) {
	sys, err := p.makeRun(inputs, maxSteps)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	res, err := sys.RunContext(ctx, sim.NewRandom(seed), maxSteps)
	if err != nil {
		return nil, err
	}
	return finishSolve(inputs, maxSteps, res, sys.Mem().Stats())
}

// RunSpec describes one run in a SolveBatch or SolveSeq sweep over a
// compiled handle: the process inputs and the schedule seed. Seed is used
// verbatim, so a sweep entry equals Solve(ctx, Inputs, Seed(Seed)) exactly;
// a zero MaxSteps takes the batch default (MaxSteps option, else 50
// million), and a negative one fails the spec with ErrBadInput.
type RunSpec struct {
	Inputs   []int
	Seed     int64
	MaxSteps int64
}

// RunResult pairs a RunSpec with its result. Exactly one of Outcome and Err
// is set.
type RunResult struct {
	Spec    RunSpec
	Outcome *Outcome
	Err     error
}

// budget resolves a spec's step budget against the batch default.
func (sp RunSpec) budget(dflt int64) int64 {
	if sp.MaxSteps != 0 {
		return sp.MaxSteps
	}
	return dflt
}

// SolveBatch runs many independent sweeps of the compiled protocol in
// parallel across a worker pool (Workers option; default GOMAXPROCS) and
// returns one result per spec, in order. Each run gets its own memory,
// processes, and scheduler — forked from the handle's pristine snapshot
// when the inputs repeat — so results are bit-identical to running the
// specs one at a time through Solve. Cancelling ctx stops the batch
// promptly; unfinished specs report ctx.Err().
func (p *Protocol) SolveBatch(ctx context.Context, specs []RunSpec, opts ...BatchOption) []RunResult {
	c := p.batchConfig(opts)
	out := make([]RunResult, len(specs))
	if c.err != nil {
		for i, sp := range specs {
			out[i] = RunResult{Spec: sp, Err: c.err}
		}
		return out
	}
	jobs := make([]sim.BatchJob, len(specs))
	stats := make([]machine.Stats, len(specs))
	for i, sp := range specs {
		out[i].Spec = sp
		i, sp := i, sp
		budget := sp.budget(c.maxSteps)
		jobs[i] = sim.BatchJob{
			Make: func() (*sim.System, error) {
				return p.makeRun(sp.Inputs, budget)
			},
			Sched: func() sim.Scheduler { return sim.NewRandom(sp.Seed) },
			// The run's System is recycled on Close (the handle's pool), so
			// its measurements are snapshotted while it is still alive.
			Done:     func(sys *sim.System) { stats[i] = sys.Mem().Stats() },
			MaxSteps: budget,
		}
	}
	results, _ := sim.RunBatch(ctx, jobs, c.workers)
	for i, r := range results {
		if r.Err != nil {
			out[i].Err = r.Err
			continue
		}
		out[i].Outcome, out[i].Err = finishSolve(specs[i].Inputs, jobs[i].MaxSteps, r.Result, stats[i])
	}
	return out
}

// makeRun is newRun behind the validity checks shared by every solve verb:
// a compiled protocol, well-formed inputs and a non-negative step budget.
func (p *Protocol) makeRun(inputs []int, maxSteps int64) (*sim.System, error) {
	if p.pr == nil {
		return nil, p.errNoProtocol()
	}
	if maxSteps < 0 {
		return nil, fmt.Errorf("%w: step budget %d is negative", ErrBadInput, maxSteps)
	}
	if err := p.checkInputs(inputs); err != nil {
		return nil, err
	}
	return p.newRun(inputs)
}

// SolveSeq streams a sweep: it returns an iterator yielding (index, result)
// pairs in spec order, running each spec lazily when the consumer asks for
// it. Breaking out of the range stops the sweep; a cancelled ctx yields
// exactly one result carrying ctx.Err() — the interrupted or first
// unstarted spec — and then stops. Memory use is one live run regardless
// of sweep length, which is the intended way to scan very long (or
// unbounded, via a generated slice) seed sweeps for a condition.
func (p *Protocol) SolveSeq(ctx context.Context, specs []RunSpec) iter.Seq2[int, RunResult] {
	return func(yield func(int, RunResult) bool) {
		for i, sp := range specs {
			if err := ctx.Err(); err != nil {
				yield(i, RunResult{Spec: sp, Err: err})
				return
			}
			out, err := p.solveOne(ctx, sp.Inputs, sp.Seed, sp.budget(defaultMaxSteps))
			if !yield(i, RunResult{Spec: sp, Outcome: out, Err: err}) {
				return
			}
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				// The interrupted run already carried the cancellation;
				// don't report the next spec as a second failure.
				return
			}
		}
	}
}

// Verify exhaustively model-checks the compiled protocol on the given
// inputs over every interleaving up to maxDepth scheduler steps (0 = until
// all processes decide, which only wait-free rows accept; a negative depth,
// or 0 on any other row, reports ErrBadInput). Exploration runs on
// forked configuration snapshots with canonical-state deduplication; the
// Workers option spreads it across a work-stealing pool without changing
// the report, and WithSymmetry additionally merges configurations equal up
// to location/process symmetry without changing the verdict. Cancelling
// ctx aborts the exploration with ctx.Err().
func (p *Protocol) Verify(ctx context.Context, inputs []int, maxDepth int, opts ...VerifyOption) (*VerifyReport, error) {
	c := p.verifyConfig(opts)
	if c.err != nil {
		return nil, c.err
	}
	if p.pr == nil {
		return nil, p.errNoProtocol()
	}
	if err := p.checkInputs(inputs); err != nil {
		return nil, err
	}
	// Unbounded exploration only terminates when every process decides in a
	// bounded number of own steps regardless of scheduling: the
	// obstruction-free rows have infinite interleaving trees.
	if maxDepth < 0 {
		return nil, fmt.Errorf("%w: Verify maxDepth %d is negative", ErrBadInput, maxDepth)
	}
	if maxDepth == 0 && !p.pr.WaitFree {
		return nil, fmt.Errorf("%w: row %s is not wait-free; Verify needs maxDepth > 0 to bound the exploration", ErrBadInput, p.row.ID)
	}
	table, err := c.table.exploreTable()
	if err != nil {
		return nil, err
	}
	eo := explore.Options{
		MaxDepth:   maxDepth,
		MaxRuns:    c.maxRuns,
		SoloBudget: c.soloBudget,
		Dedup:      true,
		Symmetry:   c.symmetry,
		Table:      table,
		TableBytes: c.tableBytes,
		SpillNodes: c.spillNodes,
		SpillDir:   c.spillDir,
		Progress:   c.progress,
	}
	if c.workersSet {
		eo.Workers = c.workers
		if eo.Workers <= 0 {
			eo.Workers = runtime.GOMAXPROCS(0)
		}
	}
	rep, err := explore.Exhaustive(ctx, func() (*sim.System, error) {
		return p.newRun(inputs)
	}, eo)
	if err != nil {
		return nil, err
	}
	out := &VerifyReport{
		Runs: rep.Runs, States: rep.States, Deduped: rep.Deduped, Truncated: rep.Truncated,
		DecidedValues: rep.DecidedValues, DistinctStates: rep.DistinctStates,
		UnderApprox: rep.UnderApprox, FalseMergeProb: rep.FalseMergeProb,
		Mem: VerifyMemStats{
			TableBytes:     rep.Mem.TableBytes,
			TableOccupancy: rep.Mem.TableOccupancy,
			PeakFrontier:   rep.Mem.PeakFrontier,
			PeakResident:   rep.Mem.PeakResident,
			SpilledBatches: rep.Mem.SpilledBatches,
		},
	}
	for _, v := range rep.Violations {
		out.Violations = append(out.Violations, v.String())
	}
	return out, nil
}

// Steps profiles the compiled protocol's solo and contended step complexity
// at the compiled n — the extra hierarchy axis the paper's conclusion calls
// for.
func (p *Protocol) Steps(ctx context.Context) (*StepProfile, error) {
	return core.MeasureSteps(ctx, p.row, p.n, defaultMaxSteps)
}
