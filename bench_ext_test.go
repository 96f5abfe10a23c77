package repro

// Extension benchmarks: the paper's Section 10 directions made measurable —
// the obstruction-free → randomized wait-free transformation the intro
// cites ([GHHW13]), the history-object universality remark, and the
// adopt-commit objects ([AE14]) behind the conclusion's conjectures.

import (
	"fmt"
	"testing"

	"repro/internal/adoptcommit"
	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/objects"
	"repro/internal/sim"
	"repro/internal/transform"
)

// BenchmarkExt_RandomizedWaitFree measures the randomized wait-free driver
// over the two-max-register protocol: slots (scheduling grants) and real
// steps until all processes decide, space unchanged at 2 locations.
func BenchmarkExt_RandomizedWaitFree(b *testing.B) {
	n := benchN
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = (i * 5) % n
	}
	var slots, steps int64
	for i := 0; i < b.N; i++ {
		pr := consensus.MaxRegisters(n)
		sys := pr.MustSystem(inputs)
		res, err := transform.Run(sys, transform.FairRotation(n), int64(i+1), 50_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if fp := sys.Mem().Stats().Footprint(); fp != 2 {
			b.Fatalf("footprint %d", fp)
		}
		slots, steps = res.Slots, res.Steps
		sys.Close()
	}
	b.ReportMetric(float64(slots), "slots")
	b.ReportMetric(float64(steps), "mem-steps")
	b.ReportMetric(2, "locations")
}

// BenchmarkExt_UniversalQueue measures the single-location linearizable
// queue: operations per run with l workers hammering one l-buffer.
func BenchmarkExt_UniversalQueue(b *testing.B) {
	for _, l := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mem := machine.New(machine.SetBuffers(l), 1)
				body := func(p *sim.Proc) int {
					q := objects.New(p, 0, objects.Queue{})
					for j := 0; j < 5; j++ {
						q.Update(objects.QueueOp{Enq: j})
						q.Update(objects.QueueOp{})
					}
					return 0
				}
				sys := sim.NewSystem(mem, make([]int, l), body)
				if _, err := sys.Run(sim.NewRandom(int64(i+1)), 10_000_000); err != nil {
					b.Fatal(err)
				}
				if fp := mem.Stats().Footprint(); fp != 1 {
					b.Fatalf("footprint %d", fp)
				}
				sys.Close()
			}
			b.ReportMetric(float64(10*l), "queue-ops")
			b.ReportMetric(1, "locations")
		})
	}
}

// BenchmarkExt_AdoptCommitRounds measures the round-based adopt-commit
// consensus: how many 2n-register instances a contended run consumes — the
// space quantity the conclusion's conjectures are about.
func BenchmarkExt_AdoptCommitRounds(b *testing.B) {
	n := benchN
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = (i * 3) % n
	}
	var fp int
	for i := 0; i < b.N; i++ {
		pr := adoptcommit.Consensus(n)
		sys, err := pr.NewSystem(inputs)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run(sim.NewRandom(int64(i+1)), 10_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.CheckConsensus(inputs); err != nil {
			b.Fatal(err)
		}
		fp = sys.Mem().Stats().Footprint()
		sys.Close()
	}
	b.ReportMetric(float64(fp), "locations")
	b.ReportMetric(float64(fp)/float64(2*n), "instances")
}
