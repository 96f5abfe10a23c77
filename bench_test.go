package repro

// The benchmark harness regenerates every experiment of the paper's
// evaluation: each row of Table 1 (the paper's only table) gets a
// BenchmarkT1_* that runs the row's upper-bound protocol to a decision and
// reports the measured space (locations), step count, and value width; the
// concurrent-append scenario of Figure 1 gets BenchmarkF1_HistoryAppend;
// and the two introduction protocols get BenchmarkX*. Ablation benchmarks
// cover the design choices DESIGN.md calls out: bounded vs unbounded
// counters, the Lemma 5.2 blow-up, value-width growth, and the buffer
// capacity sweep.
//
// The paper reports no wall-clock measurements (its Table 1 entries are
// location counts), so the primary "result" here is the locations metric;
// ns/op measures the simulator, not any hardware claim.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/history"
	"repro/internal/machine"
	"repro/internal/sim"
)

const (
	benchN     = 8
	benchL     = 2
	benchSteps = 50_000_000
)

// benchRow runs one Table 1 row to a decision per iteration and reports the
// space metrics.
func benchRow(b *testing.B, id string, n, l int) {
	b.Helper()
	row, ok := core.RowByID(id, l)
	if !ok {
		b.Fatalf("unknown row %s", id)
	}
	var last *core.Measurement
	for i := 0; i < b.N; i++ {
		m, err := core.MeasureRow(row, n, int64(i+1), benchSteps)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Check(); err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(float64(last.Footprint), "locations")
	b.ReportMetric(float64(last.Steps), "mem-steps")
	b.ReportMetric(float64(last.MaxBits), "max-bits")
	if up := last.UpperBound; up != core.Unbounded {
		b.ReportMetric(float64(up), "paper-upper")
	}
	if lo := last.LowerBound; lo != core.Unbounded {
		b.ReportMetric(float64(lo), "paper-lower")
	}
}

// --- Table 1, top to bottom -------------------------------------------------

func BenchmarkT1_01_TASUnbounded(b *testing.B)   { benchRow(b, "T1.1", benchN, benchL) }
func BenchmarkT1_02_BinaryWrites(b *testing.B)   { benchRow(b, "T1.2", benchN, benchL) }
func BenchmarkT1_03_Registers(b *testing.B)      { benchRow(b, "T1.3", benchN, benchL) }
func BenchmarkT1_04_TASReset(b *testing.B)       { benchRow(b, "T1.4", benchN, benchL) }
func BenchmarkT1_05_Swap(b *testing.B)           { benchRow(b, "T1.5", benchN, benchL) }
func BenchmarkT1_07_Increment(b *testing.B)      { benchRow(b, "T1.7", benchN, benchL) }
func BenchmarkT1_08_FetchIncrement(b *testing.B) { benchRow(b, "T1.8", benchN, benchL) }
func BenchmarkT1_09_MaxRegisters(b *testing.B)   { benchRow(b, "T1.9", benchN, benchL) }
func BenchmarkT1_10_CAS(b *testing.B)            { benchRow(b, "T1.10", benchN, benchL) }
func BenchmarkT1_11_SetBit(b *testing.B)         { benchRow(b, "T1.11", benchN, benchL) }
func BenchmarkT1_12_Add(b *testing.B)            { benchRow(b, "T1.12", benchN, benchL) }
func BenchmarkT1_13_Multiply(b *testing.B)       { benchRow(b, "T1.13", benchN, benchL) }
func BenchmarkT1_14_FetchAdd(b *testing.B)       { benchRow(b, "T1.14", benchN, benchL) }
func BenchmarkT1_15_FetchMultiply(b *testing.B)  { benchRow(b, "T1.15", benchN, benchL) }

// BenchmarkT1_06_Buffers sweeps the buffer capacity l, the row's parameter:
// measured locations must track ceil(n/l) with the ceil((n-1)/l) lower bound
// one below at the divisibility boundaries.
func BenchmarkT1_06_Buffers(b *testing.B) {
	for _, l := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			benchRow(b, "T1.6", benchN, l)
		})
	}
}

// BenchmarkT1_MA_MultiAssign runs the buffer protocol on multiple-
// assignment-capable memory (Theorem 7.5's setting): same ceil(n/l) upper
// bound, lower bound halved to ceil((n-1)/2l).
func BenchmarkT1_MA_MultiAssign(b *testing.B) {
	for _, l := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			benchRow(b, "T1.MA", benchN, l)
		})
	}
}

// --- Figure 1: l concurrent appends on one l-buffer history object ----------

// BenchmarkF1_HistoryAppend reproduces the Figure 1 overlap: l appenders
// whose embedded reads all precede all writes, then a reader reconstructing
// the full history. The metric of interest is that reconstruction stays
// correct (checked) while costing two atomic steps per append.
func BenchmarkF1_HistoryAppend(b *testing.B) {
	for _, l := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mem := machine.New(machine.SetBuffers(l), 1)
				bodies := make([]sim.Body, l+1)
				for j := 0; j < l; j++ {
					bodies[j] = func(p *sim.Proc) int {
						history.New(p, 0).Append(p.ID())
						return 0
					}
				}
				var got []history.Entry
				bodies[l] = func(p *sim.Proc) int {
					got = history.New(p, 0).GetHistory()
					return 0
				}
				sys := sim.NewSystemBodies(mem, make([]int, l+1), bodies)
				// Figure 1 schedule: all reads, then all writes, then the read.
				for pid := 0; pid < l; pid++ {
					if _, err := sys.Step(pid); err != nil {
						b.Fatal(err)
					}
				}
				for pid := 0; pid < l; pid++ {
					if _, err := sys.Step(pid); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sys.Step(l); err != nil {
					b.Fatal(err)
				}
				if len(got) != l {
					b.Fatalf("reconstructed %d of %d concurrent appends", len(got), l)
				}
				sys.Close()
			}
			b.ReportMetric(float64(l), "concurrent-appends")
		})
	}
}

// --- Introduction protocols --------------------------------------------------

func benchIntro(b *testing.B, build func(int) *consensus.Protocol) {
	b.Helper()
	n := benchN
	var steps int64
	for i := 0; i < b.N; i++ {
		pr := build(n)
		inputs := make([]int, n)
		for j := range inputs {
			inputs[j] = j % 2
		}
		sys := pr.MustSystem(inputs)
		res, err := sys.Run(sim.NewRandom(int64(i+1)), 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckConsensus(inputs); err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
		sys.Close()
	}
	b.ReportMetric(float64(steps), "mem-steps")
	b.ReportMetric(1, "locations")
	b.ReportMetric(float64(steps)/float64(benchN), "steps-per-proc")
}

// BenchmarkX1_IntroFAA2TAS: wait-free binary consensus from one location
// supporting {fetch-and-add(2), test-and-set} (introduction, example 1).
func BenchmarkX1_IntroFAA2TAS(b *testing.B) { benchIntro(b, consensus.IntroFAA2TAS) }

// BenchmarkX2_IntroDecMul: wait-free binary consensus from one location
// supporting {read, decrement, multiply} (introduction, example 2).
func BenchmarkX2_IntroDecMul(b *testing.B) { benchIntro(b, consensus.IntroDecMul) }

// --- Exploration ---------------------------------------------------------------

// BenchmarkExplore measures the systematic explorer: for a depth-bounded
// instance, each variant runs one full exhaustive exploration per
// iteration.
//
//   - fork: configurations forked at branch points, no dedup.
//   - fork-dedup: forking plus the canonical seen-state table.
func BenchmarkExplore(b *testing.B) {
	cases := []struct {
		name   string
		build  func(n int) *consensus.Protocol
		inputs []int
		depth  int
	}{
		{"cas3-depth6", consensus.CAS, []int{0, 1, 2}, 6},
		{"maxreg2-depth9", consensus.MaxRegisters, []int{0, 1}, 9},
	}
	for _, tc := range cases {
		stepperFactory := func() (*sim.System, error) {
			return tc.build(len(tc.inputs)).NewSystem(tc.inputs)
		}
		variants := []struct {
			name string
			f    explore.Factory
			opts explore.Options
		}{
			{"fork", stepperFactory, explore.Options{MaxDepth: tc.depth}},
			{"fork-dedup", stepperFactory, explore.Options{MaxDepth: tc.depth, Dedup: true}},
		}
		for _, v := range variants {
			b.Run(tc.name+"/"+v.name, func(b *testing.B) {
				var rep *explore.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = explore.Exhaustive(context.Background(), v.f, v.opts)
					if err != nil {
						b.Fatal(err)
					}
					if len(rep.Violations) != 0 {
						b.Fatal(rep.Violations[0])
					}
				}
				b.ReportMetric(float64(rep.States), "states")
				b.ReportMetric(float64(rep.Runs), "runs")
			})
		}
	}
}

// BenchmarkExploreParallel records the worker-scaling curve of the walk
// against its one-worker run on instances large enough (thousands to tens
// of thousands of configurations) for the pool to matter: the full
// 6-process CAS tree and depth-bounded 2- and 3-process max-register trees,
// with and without the sharded seen-state table. The "seq" variant leaves
// Workers unset; "p1".."p8" set it to 1/2/4/8. Reports are verified
// identical to the one-worker baseline every iteration, so the benchmark
// doubles as a determinism check. On a
// single-core host the curve measures pure synchronization overhead (see
// EXPERIMENTS.md); the speedup column needs >= 4 hardware threads.
func BenchmarkExploreParallel(b *testing.B) {
	cases := []struct {
		name   string
		build  func(n int) *consensus.Protocol
		inputs []int
		depth  int
		dedup  bool
	}{
		{"cas6-full", consensus.CAS, []int{0, 1, 2, 3, 4, 5}, 0, false},
		{"maxreg2-depth12", consensus.MaxRegisters, []int{0, 1}, 12, false},
		{"maxreg3-depth8", consensus.MaxRegisters, []int{0, 1, 2}, 8, false},
		{"maxreg3-depth8-dedup", consensus.MaxRegisters, []int{0, 1, 2}, 8, true},
	}
	for _, tc := range cases {
		f := func() (*sim.System, error) {
			return tc.build(len(tc.inputs)).NewSystem(tc.inputs)
		}
		popts := func(w int) explore.Options {
			return explore.Options{MaxDepth: tc.depth, Workers: w, Dedup: tc.dedup}
		}
		want, err := explore.Exhaustive(context.Background(), f, popts(0))
		if err != nil {
			b.Fatal(err)
		}
		variants := []struct {
			name string
			opts explore.Options
		}{
			{"seq", popts(0)},
			{"p1", popts(1)},
			{"p2", popts(2)},
			{"p4", popts(4)},
			{"p8", popts(8)},
		}
		for _, v := range variants {
			b.Run(tc.name+"/"+v.name, func(b *testing.B) {
				var rep *explore.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = explore.Exhaustive(context.Background(), f, v.opts)
					if err != nil {
						b.Fatal(err)
					}
					if rep.States != want.States || rep.Runs != want.Runs ||
						rep.DistinctStates != want.DistinctStates || len(rep.Violations) != 0 {
						b.Fatalf("report diverged from baseline:\nwant %+v\ngot  %+v", want, rep)
					}
				}
				b.ReportMetric(float64(rep.States), "states")
			})
		}
	}
}

// BenchmarkExploreSymmetry measures what the symmetry-reduced seen-state
// key buys on symmetric instances: same exploration, dedup on, keyed exact
// vs keyed up to location/process symmetry. The states metric is the
// configurations actually expanded, orbits the distinct keys — with
// symmetry the orbit count is the state-space quotient the ROADMAP's speed
// axis is after, and the expanded count shrinks with it. Every iteration
// cross-checks that the decided-value set is unchanged by the quotient.
func BenchmarkExploreSymmetry(b *testing.B) {
	cases := []struct {
		name   string
		build  func(n int) *consensus.Protocol
		inputs []int
		depth  int
	}{
		{"maxreg3-depth8", consensus.MaxRegisters, []int{2, 0, 1}, 8},
		{"incbinary3-depth8", consensus.IncrementBinary, []int{1, 0, 1}, 8},
		{"increment4-depth7", consensus.Increment, []int{1, 0, 1, 0}, 7},
		{"writebits3-depth7", consensus.WriteBits, []int{1, 0, 1}, 7},
	}
	for _, tc := range cases {
		f := func() (*sim.System, error) {
			return tc.build(len(tc.inputs)).NewSystem(tc.inputs)
		}
		exact := explore.Options{MaxDepth: tc.depth, Dedup: true}
		want, err := explore.Exhaustive(context.Background(), f, exact)
		if err != nil {
			b.Fatal(err)
		}
		sym := exact
		sym.Symmetry = true
		for _, v := range []struct {
			name string
			opts explore.Options
		}{{"exact", exact}, {"sym", sym}} {
			b.Run(tc.name+"/"+v.name, func(b *testing.B) {
				var rep *explore.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = explore.Exhaustive(context.Background(), f, v.opts)
					if err != nil {
						b.Fatal(err)
					}
					if len(rep.Violations) != 0 {
						b.Fatal(rep.Violations[0])
					}
					if !slices.Equal(rep.DecidedValues, want.DecidedValues) {
						b.Fatalf("decided values %v, want %v", rep.DecidedValues, want.DecidedValues)
					}
				}
				b.ReportMetric(float64(rep.States), "states")
				b.ReportMetric(float64(rep.DistinctStates), "orbits")
			})
		}
	}
}

// BenchmarkSolveBatch runs a 64-seed sweep of the two-max-register protocol
// per iteration, serially and on the parallel batch runner, so the speedup
// of spreading independent schedules across cores is directly visible.
func BenchmarkSolveBatch(b *testing.B) {
	inputs := []int{3, 1, 4, 1, 2, 0, 6, 5}
	p, err := Compile("T1.9", len(inputs))
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]RunSpec, 64)
	for i := range specs {
		specs[i] = RunSpec{Inputs: inputs, Seed: int64(i + 1)}
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				steps = 0
				for _, ro := range p.SolveBatch(context.Background(), specs, Workers(tc.workers)) {
					if ro.Err != nil {
						b.Fatal(ro.Err)
					}
					steps += ro.Outcome.Steps
				}
			}
			b.ReportMetric(float64(steps*int64(b.N))/b.Elapsed().Seconds(), "steps/sec")
			b.ReportMetric(float64(len(specs)), "runs")
		})
	}
}

// --- Ablations ----------------------------------------------------------------

// BenchmarkAblation_ValueWidth measures the bit-width growth of the
// single-location arithmetic rows — the location-size concern the paper's
// conclusion raises: multiply grows without bound, add is capped by the
// base-3n digit discipline.
func BenchmarkAblation_ValueWidth(b *testing.B) {
	for _, tc := range []struct {
		name string
		id   string
	}{
		{"multiply-unbounded", "T1.13"},
		{"add-bounded", "T1.12"},
		{"set-bit", "T1.11"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			row, _ := core.RowByID(tc.id, 1)
			var bits float64
			for i := 0; i < b.N; i++ {
				m, err := core.MeasureRow(row, benchN, int64(i+1), benchSteps)
				if err != nil {
					b.Fatal(err)
				}
				bits = float64(m.MaxBits)
			}
			b.ReportMetric(bits, "max-bits")
		})
	}
}

// BenchmarkAblation_Lemma52 sweeps n for the increment row, exhibiting the
// (c+2)ceil(log2 n)-2 location blow-up of the bit-by-bit agreement.
func BenchmarkAblation_Lemma52(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRow(b, "T1.7", n, 1)
		})
	}
}

// BenchmarkAblation_RegistersVsBuffers contrasts SP over the same racing
// algorithm as the substrate changes: n registers vs ceil(n/l) buffers.
func BenchmarkAblation_RegistersVsBuffers(b *testing.B) {
	b.Run("registers", func(b *testing.B) { benchRow(b, "T1.3", benchN, 1) })
	b.Run("buffers-l4", func(b *testing.B) { benchRow(b, "T1.6", benchN, 4) })
}

// BenchmarkAblation_SwapScaling sweeps n for Algorithm 1's n-1 locations.
func BenchmarkAblation_SwapScaling(b *testing.B) {
	for _, n := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRow(b, "T1.5", n, 1)
		})
	}
}

// BenchmarkCompiledSolveSweep measures the tentpole amortization of the
// compiled-handle API: a 100-seed sweep through one compiled handle (each
// run forks the pristine snapshot) against the same sweep with per-run
// construction (row resolution + protocol build + fresh memory and
// steppers per seed, the pre-handle path). Rows: the two-max-register
// protocol and the one-location add-counter row, both natively forkable.
func BenchmarkCompiledSolveSweep(b *testing.B) {
	const sweep = 100
	inputs := []int{3, 1, 4, 1, 2, 0, 6, 7}
	ctx := context.Background()
	for _, rowID := range []string{"T1.9", "T1.12"} {
		b.Run(rowID+"/compiled", func(b *testing.B) {
			p, err := Compile(rowID, len(inputs))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for seed := int64(1); seed <= sweep; seed++ {
					if _, err := p.Solve(ctx, inputs, Seed(seed)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweep), "ns/run")
		})
		b.Run(rowID+"/fresh", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for seed := int64(1); seed <= sweep; seed++ {
					// The pre-handle per-run path: resolve the row, build
					// the protocol, construct a fresh system.
					row, ok := core.RowByID(rowID, 2)
					if !ok {
						b.Fatal("unknown row")
					}
					sys, err := row.Build(len(inputs)).NewSystem(inputs)
					if err != nil {
						b.Fatal(err)
					}
					res, err := sys.Run(sim.NewRandom(seed), 50_000_000)
					if err != nil {
						sys.Close()
						b.Fatal(err)
					}
					if _, ok := res.AgreedValue(); !ok {
						sys.Close()
						b.Fatal("no decision")
					}
					sys.Close()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sweep), "ns/run")
		})
	}
}
