package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Measurement is one empirical data point for a row: the protocol ran to
// completion and its space and step consumption were recorded.
type Measurement struct {
	RowID string
	N     int
	// DeclaredLocations is the protocol's allocation (Unbounded for the
	// growing-memory rows).
	DeclaredLocations int
	// Footprint is the number of distinct locations actually touched.
	Footprint int
	// Steps is the total number of atomic steps until all processes decided.
	Steps int64
	// MaxBits is the widest value any location held (the Section 10
	// location-size ablation).
	MaxBits int
	// Decided is the agreed value.
	Decided int
	// LowerBound/UpperBound are the paper's bounds evaluated at N.
	LowerBound, UpperBound int
}

// rowInputs is the deterministic adversarially-shuffled input convention
// used by all measurements.
func rowInputs(values, n int) []int {
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = (i*3 + 1) % values
	}
	return inputs
}

// rowSeed derives the per-row schedule seed from the caller's base seed and
// the row identity. Folding the row id in decorrelates the rows (previously
// every row replayed the same schedule stream, a correlation artifact) and,
// more importantly, pins the seeding to the job's identity alone: a row's
// schedule can never depend on which worker picks the job up, in what
// order, or where the row sits in the measured slice. MeasureRow and
// MeasureAll share it, so the two stay result-identical by construction.
func rowSeed(seed int64, rowID string) int64 {
	h := uint64(seed)
	for i := 0; i < len(rowID); i++ {
		h = machine.Mix64(h ^ uint64(rowID[i]))
	}
	return int64(h)
}

// MeasureRow runs the row's protocol for n processes with adversarially
// shuffled inputs under a seeded random schedule and returns the
// measurement. maxSteps bounds the run (random schedules are fair, so
// obstruction-free protocols decide well within generous budgets).
func MeasureRow(r Row, n int, seed int64, maxSteps int64) (*Measurement, error) {
	if r.Build == nil {
		return nil, fmt.Errorf("core: row %s has no constructive protocol", r.ID)
	}
	pr := r.Build(n)
	inputs := rowInputs(pr.Values, n)
	sys, err := pr.NewSystem(inputs)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	res, err := sys.Run(sim.NewRandom(rowSeed(seed, r.ID)), maxSteps)
	if err != nil {
		return nil, fmt.Errorf("core: row %s n=%d: %w", r.ID, n, err)
	}
	return finishMeasurement(r, n, pr, inputs, res, sys.Mem().Stats())
}

// finishMeasurement validates a finished run and assembles its Measurement.
func finishMeasurement(r Row, n int, pr *consensus.Protocol, inputs []int, res *sim.Result, stats machine.Stats) (*Measurement, error) {
	if err := res.CheckConsensus(inputs); err != nil {
		return nil, fmt.Errorf("core: row %s n=%d: %w", r.ID, n, err)
	}
	if len(res.Undecided) > 0 {
		return nil, fmt.Errorf("core: row %s n=%d: %d processes undecided after %d steps",
			r.ID, n, len(res.Undecided), res.Steps)
	}
	decided, _ := res.AgreedValue()
	declared := pr.Locations
	if pr.Unbounded {
		declared = Unbounded
	}
	lo, up := SP(r, n)
	return &Measurement{
		RowID:             r.ID,
		N:                 n,
		DeclaredLocations: declared,
		Footprint:         stats.Footprint(),
		Steps:             stats.Steps,
		MaxBits:           stats.MaxBits,
		Decided:           decided,
		LowerBound:        lo,
		UpperBound:        up,
	}, nil
}

// MeasureAll measures every constructive row of rows at n, running the rows
// in parallel on the batch runner (workers <= 0 uses GOMAXPROCS). Each row's
// schedule seed derives from (seed, row id) via rowSeed, so per-job seeding
// is independent of worker assignment, execution order, and the row's
// position in rows. The returned slice aligns with rows; entries for rows
// without a constructive protocol are nil. Results are identical to calling
// MeasureRow per row — runs share nothing.
func MeasureAll(ctx context.Context, rows []Row, n int, seed, maxSteps int64, workers int) ([]*Measurement, error) {
	type slot struct {
		pr     *consensus.Protocol
		inputs []int
		stats  machine.Stats
	}
	slots := make([]slot, len(rows))
	var jobs []sim.BatchJob
	var jobRow []int // job index -> rows index
	for i, r := range rows {
		if r.Build == nil {
			continue
		}
		i, r := i, r
		jobs = append(jobs, sim.BatchJob{
			Make: func() (*sim.System, error) {
				pr := r.Build(n)
				inputs := rowInputs(pr.Values, n)
				sys, err := pr.NewSystem(inputs)
				if err != nil {
					return nil, err
				}
				slots[i].pr, slots[i].inputs = pr, inputs
				return sys, nil
			},
			Sched: func() sim.Scheduler { return sim.NewRandom(rowSeed(seed, r.ID)) },
			// Snapshot while the System is alive; a pooled System's Memory
			// is rebuilt for other runs after Close.
			Done:     func(sys *sim.System) { slots[i].stats = sys.Mem().Stats() },
			MaxSteps: maxSteps,
		})
		jobRow = append(jobRow, i)
	}
	results := sim.RunBatch(ctx, jobs, workers)
	out := make([]*Measurement, len(rows))
	for j, res := range results {
		i := jobRow[j]
		if res.Err != nil {
			return nil, fmt.Errorf("core: row %s n=%d: %w", rows[i].ID, n, res.Err)
		}
		m, err := finishMeasurement(rows[i], n, slots[i].pr, slots[i].inputs, res.Result, slots[i].stats)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Check validates a measurement against the row's bounds: the footprint of
// a bounded protocol must not exceed the declared locations, and for
// exact-upper-bound rows it must not exceed the bound itself.
func (m *Measurement) Check() error {
	if m.DeclaredLocations != Unbounded && m.Footprint > m.DeclaredLocations {
		return fmt.Errorf("core: row %s n=%d: footprint %d exceeds declared %d",
			m.RowID, m.N, m.Footprint, m.DeclaredLocations)
	}
	if m.UpperBound != Unbounded && m.DeclaredLocations != Unbounded && m.Footprint > m.UpperBound {
		// Asymptotic rows evaluate At(n) to the construction's size, so this
		// holds for them too.
		return fmt.Errorf("core: row %s n=%d: footprint %d exceeds upper bound %d",
			m.RowID, m.N, m.Footprint, m.UpperBound)
	}
	return nil
}

// boundString renders a bound value for the table.
func boundString(v int) string {
	if v == Unbounded {
		return "∞"
	}
	return fmt.Sprint(v)
}

// RenderTable produces the reproduction of Table 1 for the given n and l:
// each row shows the paper's bound formulas, their evaluation at n, and the
// measured footprint of the implemented protocol. The rows are measured in
// parallel (MeasureAll); the rendering order is Table order regardless.
func RenderTable(ctx context.Context, n, l int, seed int64) (string, error) {
	rows := Table(l)
	ms, err := MeasureAll(ctx, rows, n, seed, 50_000_000, 0)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Space Hierarchy (Table 1) — n=%d processes, l=%d buffer capacity\n\n", n, l)
	fmt.Fprintf(&b, "%-6s %-45s %14s %14s %9s %9s %10s %8s\n",
		"id", "instruction set", "paper lower", "paper upper", "lower@n", "upper@n", "measured", "steps")
	for i, r := range rows {
		lo, up := SP(r, n)
		meas := "-"
		steps := "-"
		if m := ms[i]; m != nil {
			if err := m.Check(); err != nil {
				return "", err
			}
			meas = fmt.Sprint(m.Footprint)
			steps = fmt.Sprint(m.Steps)
		}
		fmt.Fprintf(&b, "%-6s %-45s %14s %14s %9s %9s %10s %8s\n",
			r.ID, r.Sets, r.Lower.Formula, r.Upper.Formula,
			boundString(lo), boundString(up), meas, steps)
	}
	return b.String(), nil
}
