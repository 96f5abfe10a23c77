package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro"
	"repro/internal/scenario"
)

// verifyInst is one verdict of a verify portfolio.
type verifyInst struct {
	name   string
	p      *repro.Protocol
	inputs []int
	depth  int
	opts   []repro.VerifyOption
	// pin is the sequential exact-table report of the same exploration,
	// taken during set-up; every timed verdict is checked against it.
	pin *repro.VerifyReport
	// wantViolation: the verdict must report a violation (the planted
	// Byzantine scenarios) or must report none.
	wantViolation bool
	// countsDistinct is false under the bitstate table, which cannot
	// count distinct states.
	countsDistinct bool
	// first is the instance's own report from the set-up pass: every
	// later verdict must repeat its counts exactly.
	first *repro.VerifyReport
}

// verifyLoad is a closed loop of Verify calls cycling through a portfolio.
type verifyLoad struct {
	insts []verifyInst
	order []int // seeded visiting order of the portfolio
}

// shmSpec describes one verify-shm instance. Replay rows (T1.3, T1.5,
// T1.6) fork by result replay and cost several times more per state than
// the natively forking rows; the table modes, symmetry and the spilling
// instance make the same layers run in memory in some instances and on
// disk in one.
type shmSpec struct {
	row   string
	n     int
	depth int
	sym   bool
	table repro.TableMode
	bytes int64 // table budget, 0 = default
	spill int   // spill the frontier past this many nodes, 0 = off
}

// shmPortfolio has 15 instances of 1–20 ms each on the reference host; an
// odd count puts p50 and p90 inside one instance's distribution rather
// than on the boundary between two.
var shmPortfolio = []shmSpec{
	{row: "T1.9", n: 3, depth: 10},
	{row: "T1.9", n: 3, depth: 10, sym: true},
	{row: "T1.9", n: 3, depth: 10, table: repro.TableCompact},
	{row: "T1.9", n: 3, depth: 10, table: repro.TableBitstate, bytes: 1 << 20},
	{row: "T1.9", n: 3, depth: 12, spill: 16},
	{row: "T1.7", n: 3, depth: 10},
	{row: "T1.7", n: 4, depth: 8, sym: true, table: repro.TableCompact128},
	{row: "T1.8", n: 3, depth: 10, table: repro.TableCompact128},
	{row: "T1.12", n: 3, depth: 10},
	{row: "T1.12", n: 3, depth: 10, sym: true, table: repro.TableCompact},
	{row: "T1.11", n: 3, depth: 10},
	{row: "T1.10", n: 6, depth: 0},
	{row: "T1.3", n: 3, depth: 7},
	{row: "T1.5", n: 3, depth: 8},
	{row: "T1.6", n: 3, depth: 6},
}

func (sp shmSpec) String() string {
	s := fmt.Sprintf("%s n=%d d%d %v", sp.row, sp.n, sp.depth, sp.table)
	if sp.sym {
		s += " sym"
	}
	if sp.spill > 0 {
		s += fmt.Sprintf(" spill%d", sp.spill)
	}
	return s
}

func setupVerifySHM(cfg config) (load, error) {
	r := rng(cfg.seed, 2)
	ctx := context.Background()
	l := &verifyLoad{}
	for _, sp := range shmPortfolio {
		p, err := repro.Compile(sp.row, sp.n)
		if err != nil {
			return nil, err
		}
		in := portfolioInputs(sp.n)
		var base []repro.VerifyOption
		if sp.sym {
			base = append(base, repro.WithSymmetry())
		}
		pin, err := p.Verify(ctx, in, sp.depth, base...)
		if err != nil {
			return nil, fmt.Errorf("%v: pinning: %w", sp, err)
		}
		opts := append(slices.Clone(base), repro.WithTable(sp.table))
		if sp.bytes > 0 {
			opts = append(opts, repro.WithTableBytes(sp.bytes))
		}
		if sp.spill > 0 {
			opts = append(opts, repro.WithSpillFrontier(sp.spill, cfg.tmp))
		}
		l.insts = append(l.insts, verifyInst{
			name: sp.String(), p: p, inputs: in, depth: sp.depth, opts: opts, pin: pin,
			countsDistinct: sp.table != repro.TableBitstate,
		})
	}
	return l.finish(r)
}

// mpDeliveries are the delivery models run on the row's own inputs next
// to the scenario portfolio.
var mpDeliveries = []struct {
	mode     repro.DeliveryMode
	maxDrops int
}{
	{repro.DeliveryOrdered, 0},
	{repro.DeliveryReorder, 0},
	{repro.DeliveryLossy, 1},
}

// mpDeliveryDepth is the depth of the delivery-model instances, which run
// on the inputs of the portfolio's baseline scenario: the depth the
// portfolio declares for its reorder and lossy scenarios.
const (
	mpDeliveryDepth = 7
	// mpSolveBudget bounds each set-up run that checks ExpectDecision; a
	// scenario past its resilience bound never decides.
	mpSolveBudget = 500_000
	// mpSolveSeeds: the set-up check runs the scenario's own windowed
	// schedule on seeds 1..mpSolveSeeds, the seeds the scenario package's
	// tests pin, so the check does not depend on the workload seed.
	mpSolveSeeds = 3
)

func setupVerifyMP(cfg config) (load, error) {
	r := rng(cfg.seed, 3)
	ctx := context.Background()
	l := &verifyLoad{}
	add := func(name string, p *repro.Protocol, in []int, depth int, want bool) error {
		pin, err := p.Verify(ctx, in, depth)
		if err != nil {
			return fmt.Errorf("%s: pinning: %w", name, err)
		}
		l.insts = append(l.insts, verifyInst{
			name: name, p: p, inputs: in, depth: depth,
			pin: pin, wantViolation: want, countsDistinct: true,
		})
		return nil
	}
	for _, sc := range repro.Scenarios() {
		p, err := repro.Compile("MP.QSC", len(sc.Inputs), repro.WithScenario(sc.Name))
		if err != nil {
			return nil, err
		}
		if err := checkScenarioSolve(sc.Name); err != nil {
			return nil, err
		}
		if err := add("scenario "+sc.Name, p, sc.Inputs, sc.Depth, sc.WantViolation); err != nil {
			return nil, err
		}
	}
	rowInputs := repro.Scenarios()[0].Inputs
	for _, dl := range mpDeliveries {
		p, err := repro.Compile("MP.QSC", len(rowInputs), repro.WithDelivery(dl.mode, dl.maxDrops))
		if err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("MP.QSC %v(%d)", dl.mode, dl.maxDrops), p, rowInputs, mpDeliveryDepth, false); err != nil {
			return nil, err
		}
	}
	return l.finish(r)
}

// checkScenarioSolve runs a scenario under fair schedules: its planted
// violation must occur, or every correct process must decide exactly when
// the scenario expects a decision.
func checkScenarioSolve(name string) error {
	sc, ok := scenario.ByName(name)
	if !ok {
		return fmt.Errorf("scenario %s not found", name)
	}
	correct := len(sc.Inputs) - len(sc.Crashes) - len(sc.Byzantine)
	for seed := int64(1); seed <= mpSolveSeeds; seed++ {
		res, err := sc.Solve(seed, mpSolveBudget)
		if err != nil {
			return fmt.Errorf("scenario %s seed %d: %w", name, seed, err)
		}
		if violated := res.CheckConsensus(sc.Inputs) != nil; violated != sc.WantViolation {
			return fmt.Errorf("scenario %s seed %d: violation=%v, want %v: %v", name, seed, violated, sc.WantViolation, res)
		}
		if sc.WantViolation {
			continue
		}
		want := 0
		if sc.ExpectDecision {
			want = correct
		}
		if len(res.Decisions) != want {
			return fmt.Errorf("scenario %s seed %d: %d processes decided, want %d: %v", name, seed, len(res.Decisions), want, res)
		}
	}
	return nil
}

// portfolioInputs are the inputs of an n-process verify instance. They are
// fixed, not drawn from the seed: the size of a state space depends on the
// inputs, and a portfolio whose work changed with the seed would measure
// the seed. The seed orders the portfolio instead.
func portfolioInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	return in
}

// finish fixes the visiting order and runs the untimed checked pass,
// which records each instance's first report.
func (l *verifyLoad) finish(r *rand.Rand) (load, error) {
	l.order = r.Perm(len(l.insts))
	ctx := context.Background()
	for i := range l.insts {
		in := &l.insts[l.order[i]]
		rep, err := in.p.Verify(ctx, in.inputs, in.depth, in.opts...)
		if err != nil {
			return nil, fmt.Errorf("%s %v: %w", in.name, in.inputs, err)
		}
		in.first = rep
		if err := in.gate(rep); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// verify runs operation i and checks the verdict against the pin.
func (l *verifyLoad) verify(ctx context.Context, i int, tr *tracer, parent int32) error {
	in := &l.insts[l.order[i%len(l.order)]]
	id := tr.begin("repro.Verify", parent, int64(i))
	rep, err := in.p.Verify(ctx, in.inputs, in.depth, in.opts...)
	tr.end(id, 1)
	if err != nil {
		return fmt.Errorf("%s %v: %w", in.name, in.inputs, err)
	}
	return in.gate(rep)
}

func (in *verifyInst) gate(rep *repro.VerifyReport) error {
	var errs []error
	if got := len(rep.Violations) > 0; got != in.wantViolation {
		errs = append(errs, fmt.Errorf("violations %v, want violation=%v", rep.Violations, in.wantViolation))
	}
	if !slices.Equal(rep.DecidedValues, in.pin.DecidedValues) {
		errs = append(errs, fmt.Errorf("decided %v, pinned %v", rep.DecidedValues, in.pin.DecidedValues))
	}
	if in.countsDistinct && rep.DistinctStates != in.pin.DistinctStates {
		errs = append(errs, fmt.Errorf("distinct states %d, pinned %d", rep.DistinctStates, in.pin.DistinctStates))
	}
	if f := in.first; rep.States != f.States || rep.Runs != f.Runs || rep.Deduped != f.Deduped {
		errs = append(errs, fmt.Errorf("states/runs/deduped %d/%d/%d, first verdict %d/%d/%d",
			rep.States, rep.Runs, rep.Deduped, f.States, f.Runs, f.Deduped))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%s %v: %w", in.name, in.inputs, err)
	}
	return nil
}

func (l *verifyLoad) run(d time.Duration, tr *tracer) *loadResult {
	ctx := context.Background()
	return closedLoop(d, tr, "op.verify", func(i int, parent int32) error {
		return l.verify(ctx, i, tr, parent)
	})
}

func (l *verifyLoad) check(*loadResult) {}

func (l *verifyLoad) close() {}
