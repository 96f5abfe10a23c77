package main

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// solveRows are the shared-memory rows of Table 1. MP.QSC is left out: a
// random schedule at n=4 can run past the default step budget.
var solveRows = []string{
	"T1.1", "T1.2", "T1.3", "T1.4", "T1.5", "T1.6", "T1.7", "T1.8",
	"T1.9", "T1.10", "T1.11", "T1.12", "T1.13", "T1.14", "T1.15", "T1.MA",
}

var solveNs = []int{4, 8}

const (
	// solveVectors input vectors per handle: as many as the handle's
	// pristine snapshot cache holds, so every timed Solve forks a warm
	// snapshot and a run's work averages over as many vectors as it can.
	solveVectors = 8
	// solveRepeatEvery: every this many operations one is re-run after
	// the timed region and must repeat byte-identically.
	solveRepeatEvery = 64
)

type solveItem struct {
	p       *repro.Protocol
	upper   int
	vectors [][]int
}

type solveSample struct {
	op  int
	out repro.Outcome
}

// solveTable is the solve-table workload: a closed loop of handle Solve
// calls over every (row, n) pair, cycling through each handle's input
// vectors with a fresh schedule seed per operation.
type solveTable struct {
	items    []solveItem
	seedBase int64
	samples  []solveSample
}

func setupSolveTable(cfg config) (load, error) {
	r := rng(cfg.seed, 1)
	s := &solveTable{seedBase: r.Int63n(1 << 40)}
	for _, row := range solveRows {
		for _, n := range solveNs {
			p, err := repro.Compile(row, n)
			if err != nil {
				return nil, err
			}
			it := solveItem{p: p}
			_, it.upper = p.Bounds()
			for v := 0; v < solveVectors; v++ {
				in := make([]int, n)
				for i := range in {
					in[i] = r.Intn(p.Values())
				}
				it.vectors = append(it.vectors, in)
			}
			s.items = append(s.items, it)
		}
	}
	// The untimed pass: one checked Solve per (handle, vector), which
	// also caches every pristine snapshot.
	ctx := context.Background()
	for i := 0; i < len(s.items)*solveVectors; i++ {
		if _, err := s.solve(ctx, i, nil, -1); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// spec maps operation i to its handle, inputs and schedule seed.
func (s *solveTable) spec(i int) (*solveItem, []int, int64) {
	it := &s.items[i%len(s.items)]
	return it, it.vectors[(i/len(s.items))%solveVectors], s.seedBase + int64(i)
}

// solve runs operation i and checks its outcome against the row's bound.
func (s *solveTable) solve(ctx context.Context, i int, tr *tracer, parent int32) (*repro.Outcome, error) {
	it, in, seed := s.spec(i)
	id := tr.begin("repro.Solve", parent, int64(i))
	out, err := it.p.Solve(ctx, in, repro.Seed(seed))
	tr.end(id, 1)
	if err != nil {
		return nil, fmt.Errorf("%s n=%d inputs %v seed %d: %w", it.p.ID(), it.p.N(), in, seed, err)
	}
	if it.upper != repro.Unbounded && out.Footprint > it.upper {
		return nil, fmt.Errorf("%s n=%d: footprint %d above the upper bound %d", it.p.ID(), it.p.N(), out.Footprint, it.upper)
	}
	return out, nil
}

func (s *solveTable) run(d time.Duration, tr *tracer) *loadResult {
	ctx := context.Background()
	s.samples = s.samples[:0]
	return closedLoop(d, tr, "op.solve", func(i int, parent int32) error {
		out, err := s.solve(ctx, i, tr, parent)
		if err == nil && i%solveRepeatEvery == 0 {
			s.samples = append(s.samples, solveSample{i, *out})
		}
		return err
	})
}

// check re-runs the sampled operations: the same seed must give the same
// outcome.
func (s *solveTable) check(out *loadResult) {
	ctx := context.Background()
	for _, sm := range s.samples {
		again, err := s.solve(ctx, sm.op, nil, -1)
		if err != nil {
			out.fail(fmt.Errorf("repeat of op %d: %w", sm.op, err))
			continue
		}
		if *again != sm.out {
			it, in, seed := s.spec(sm.op)
			out.fail(fmt.Errorf("%s n=%d inputs %v seed %d: outcome %+v, repeated %+v",
				it.p.ID(), it.p.N(), in, seed, sm.out, *again))
		}
	}
	out.note("repeat_checked", len(s.samples))
}

func (s *solveTable) close() {}
