package explore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/sim"
)

// This file is the soundness battery for superword step fusion: with fusion
// on (the default), straight-line instruction runs are fetched in one
// PoiseRun call but every step is still delivered individually, so nothing
// observable — traces, results, state keys, exploration reports — may move.
// Each test runs the same workload with and without sim.WithoutFusion() and
// requires byte-identical observations, including at every intermediate
// configuration (the "fused boundary" states inside a run).

// unfusedFactoryFor is factoryFor with fusion disabled.
func unfusedFactoryFor(build func() *consensus.Protocol, inputs []int) Factory {
	return func() (*sim.System, error) {
		return build().NewSystem(inputs, sim.WithoutFusion())
	}
}

// TestFusionDifferential compares entire exploration reports — runs, state
// counts, dedup hits, violations, decided values, distinct states — between
// fused and unfused execution, for every forkable portfolio row at several
// worker counts and in the replay oracle, with dedup and symmetry toggled.
// Report equality is the strongest available statement that fusion is
// unobservable: it implies the explorers saw identical state graphs in
// identical order.
func TestFusionDifferential(t *testing.T) {
	type cfg struct {
		label string
		run   func(*testing.T, Factory, Options) *Report
		opts  Options
	}
	for _, tc := range consensus.ForkablePortfolio() {
		t.Run(tc.Name, func(t *testing.T) {
			depth := portfolioDepth(tc.Inputs)
			fused := factoryFor(tc.Build, tc.Inputs)
			unfused := unfusedFactoryFor(tc.Build, tc.Inputs)

			var cfgs []cfg
			for _, dedup := range []bool{false, true} {
				for _, symm := range []bool{false, true} {
					for _, wk := range []int{0, 2, 4} {
						o := Options{MaxDepth: depth, Dedup: dedup, Symmetry: symm, Workers: wk}
						cfgs = append(cfgs, cfg{fmt.Sprintf("w=%d dedup=%v sym=%v", wk, dedup, symm), run, o})
					}
				}
			}
			cfgs = append(cfgs, cfg{"replay dedup=true", runReplay, Options{MaxDepth: depth, Dedup: true}})

			for _, c := range cfgs {
				want := c.run(t, unfused, c.opts)
				got := c.run(t, fused, c.opts)
				if c.opts.Workers > 1 {
					// Peak frontier/residency depend on how far ahead the
					// workers raced, which no fusion property constrains.
					got.Mem.PeakFrontier, want.Mem.PeakFrontier = 0, 0
					got.Mem.PeakResident, want.Mem.PeakResident = 0, 0
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: fused report %+v, unfused %+v", c.label, got, want)
				}
			}
		})
	}
}

// lockstep drives a fused and an unfused system through the same schedule,
// checking after every single step that traces, step counts, and both the
// exact and symmetric state keys agree — the intermediate configurations are
// exactly the positions inside a fused run, where a bug in run delivery or
// fork-time run inheritance would first surface.
func lockstep(t *testing.T, fused, unfused *sim.System, steps int, r *rand.Rand, crashAt int) {
	t.Helper()
	var live []int
	var sc, scU sim.SymScratch
	var kf, ku []byte
	for i := 0; i < steps; i++ {
		live = fused.AppendLive(live[:0])
		if len(live) == 0 {
			break
		}
		pid := live[r.Intn(len(live))]
		if crashAt > 0 && i == crashAt {
			fused.Crash(pid)
			unfused.Crash(pid)
			continue
		}
		if _, err := fused.Step(pid); err != nil {
			t.Fatalf("step %d pid %d (fused): %v", i, pid, err)
		}
		if _, err := unfused.Step(pid); err != nil {
			t.Fatalf("step %d pid %d (unfused): %v", i, pid, err)
		}
		if f, u := fused.Steps(), unfused.Steps(); f != u {
			t.Fatalf("step %d: step counts diverge: fused %d, unfused %d", i, f, u)
		}
		kf, _ = fused.AppendStateKey(kf[:0])
		ku, _ = unfused.AppendStateKey(ku[:0])
		if string(kf) != string(ku) {
			t.Fatalf("step %d: exact state keys diverge", i)
		}
		kf, _ = fused.AppendSymStateKey(kf[:0], &sc)
		ku, _ = unfused.AppendSymStateKey(ku[:0], &scU)
		if string(kf) != string(ku) {
			t.Fatalf("step %d: symmetric state keys diverge", i)
		}
	}
	if !reflect.DeepEqual(fused.Trace(), unfused.Trace()) {
		t.Fatalf("traces diverge:\nfused:   %v\nunfused: %v", fused.Trace(), unfused.Trace())
	}
}

// TestFusionLockstepTraces walks seeded random schedules over the portfolio,
// comparing traces and per-step state keys between fused and unfused systems.
func TestFusionLockstepTraces(t *testing.T) {
	for _, tc := range consensus.ForkablePortfolio() {
		t.Run(tc.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				fused := mustSys(t, tc.Build(), tc.Inputs, sim.WithTrace())
				unfused := mustSys(t, tc.Build(), tc.Inputs, sim.WithTrace(), sim.WithoutFusion())
				lockstep(t, fused, unfused, 400, rand.New(rand.NewSource(seed)), 0)
				fused.Close()
				unfused.Close()
			}
		})
	}
}

// TestFusionCrashMidRun crashes a process partway through the schedule — in
// particular mid-way through fused runs — and requires the remaining
// execution to stay identical: a crashed process's unexecuted run remainder
// must be discarded on both sides alike.
func TestFusionCrashMidRun(t *testing.T) {
	for _, tc := range consensus.ForkablePortfolio() {
		t.Run(tc.Name, func(t *testing.T) {
			for crashAt := 1; crashAt <= 9; crashAt += 4 {
				fused := mustSys(t, tc.Build(), tc.Inputs, sim.WithTrace())
				unfused := mustSys(t, tc.Build(), tc.Inputs, sim.WithTrace(), sim.WithoutFusion())
				lockstep(t, fused, unfused, 200, rand.New(rand.NewSource(7)), crashAt)
				fused.Close()
				unfused.Close()
			}
		})
	}
}

// TestFusionMaxStepsMidRun stops seeded runs on a step budget that lands
// inside fused runs and requires the truncated results to agree exactly.
func TestFusionMaxStepsMidRun(t *testing.T) {
	tc := consensus.ForkablePortfolio()[10] // increment: long straight-line scans
	for maxSteps := int64(1); maxSteps <= 23; maxSteps += 2 {
		fused := mustSys(t, tc.Build(), tc.Inputs, sim.WithTrace())
		unfused := mustSys(t, tc.Build(), tc.Inputs, sim.WithTrace(), sim.WithoutFusion())
		rf, err := fused.Run(sim.NewRandom(11), maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		ru, err := unfused.Run(sim.NewRandom(11), maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rf, ru) {
			t.Fatalf("maxSteps=%d: fused result %+v, unfused %+v", maxSteps, rf, ru)
		}
		if !reflect.DeepEqual(fused.Trace(), unfused.Trace()) {
			t.Fatalf("maxSteps=%d: traces diverge", maxSteps)
		}
		kf, _ := fused.StateKey()
		ku, _ := unfused.StateKey()
		if kf != ku {
			t.Fatalf("maxSteps=%d: state keys diverge", maxSteps)
		}
		fused.Close()
		unfused.Close()
	}
}

// TestFusionCancelMidRun cancels the context while fused runs are in flight;
// the run must stop with ctx.Err() and leave the system at a configuration
// identical to the unfused system stopped at the same step count.
func TestFusionCancelMidRun(t *testing.T) {
	tc := consensus.ForkablePortfolio()[10]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fused := mustSys(t, tc.Build(), tc.Inputs)
	defer fused.Close()
	if _, err := fused.RunContext(ctx, sim.NewRandom(3), 1000); err != context.Canceled {
		t.Fatalf("cancelled fused run returned %v, want context.Canceled", err)
	}
	// The poll boundary is step-count-driven, so a budget-bounded prefix run
	// pins where both systems stop; afterwards both must resume identically.
	unfused := mustSys(t, tc.Build(), tc.Inputs, sim.WithoutFusion())
	defer unfused.Close()
	if _, err := fused.Run(sim.NewRandom(5), 17); err != nil {
		t.Fatal(err)
	}
	if _, err := unfused.Run(sim.NewRandom(5), 17); err != nil {
		t.Fatal(err)
	}
	kf, _ := fused.StateKey()
	ku, _ := unfused.StateKey()
	if kf != ku {
		t.Fatal("state keys diverge after interrupted prefix")
	}
	rf, err := fused.Run(sim.NewRandom(9), 100000)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := unfused.Run(sim.NewRandom(9), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rf, ru) {
		t.Fatalf("resumed results diverge: fused %+v, unfused %+v", rf, ru)
	}
}

func mustSys(t *testing.T, pr *consensus.Protocol, inputs []int, opts ...sim.SystemOption) *sim.System {
	t.Helper()
	sys, err := pr.NewSystem(inputs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
