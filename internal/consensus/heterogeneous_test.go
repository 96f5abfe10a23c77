package consensus

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/history"
	"repro/internal/machine"
	"repro/internal/sim"
)

// The heterogeneous-capacity variant of Section 6.2 exists only as a Body:
// no Table 1 row builds it, so it lives here with its tests as one more
// protocol the coroutine adapter runs.

// BufferedHeterogeneous solves n-consensus over buffers of differing
// capacities (the Section 6.2 extension): caps[i] is the capacity of buffer
// i and must sum to at least n. Processes are assigned to buffers greedily
// in order.
func BufferedHeterogeneous(n int, caps []int) *Protocol {
	total := 0
	for _, c := range caps {
		total += c
	}
	if total < n {
		panic("consensus: heterogeneous capacities must sum to at least n")
	}
	// groupOf[i] is the buffer hosting process i's register; slotBase[g] is
	// the first process hosted by buffer g.
	groupOf := make([]int, n)
	slotBase := make([]int, len(caps))
	g, used := 0, 0
	for i := 0; i < n; i++ {
		for used == caps[g] {
			g++
			used = 0
		}
		if used == 0 {
			slotBase[g] = i
		}
		groupOf[i] = g
		used++
	}
	maxCap := 0
	for _, c := range caps {
		if c > maxCap {
			maxCap = c
		}
	}
	return &Protocol{
		Name:       "heterogeneous-buffers",
		Set:        machine.SetBuffers(maxCap),
		N:          n,
		Values:     n,
		Locations:  len(caps),
		Capacities: caps,
		Body: func(p *sim.Proc) int {
			arr := newHeteroArray(p, caps, groupOf)
			return RaceUnbounded(NewRegisters(arr, n), n, p.Input())
		},
	}
}

// heteroArray is the heterogeneous counterpart of swreg.Buffered: process
// i's register lives in the history object of its assigned buffer.
type heteroArray struct {
	p       *sim.Proc
	groupOf []int
	slots   [][]int // per group, the processes it hosts
	regs    []*history.Registers
}

func newHeteroArray(p *sim.Proc, caps []int, groupOf []int) *heteroArray {
	a := &heteroArray{p: p, groupOf: groupOf}
	a.slots = make([][]int, len(caps))
	for i, g := range groupOf {
		a.slots[g] = append(a.slots[g], i)
	}
	a.regs = make([]*history.Registers, len(caps))
	for g := range a.regs {
		a.regs[g] = history.NewRegisters(p, g)
	}
	return a
}

func (a *heteroArray) Write(val any) {
	a.regs[a.groupOf[a.p.ID()]].Write(a.p.ID(), val)
}

func (a *heteroArray) Collect() ([]any, string) {
	vals := make([]any, 0, len(a.groupOf))
	var fp []byte
	for g := range a.regs {
		if len(a.slots[g]) == 0 {
			continue
		}
		gv, gfp := a.regs[g].ReadAll(a.slots[g])
		vals = append(vals, gv...)
		fp = append(append(fp, gfp...), '|')
	}
	return vals, string(fp)
}

// TestHeterogeneousBuffers exercises the Section 6.2 heterogeneous-capacity
// extension: capacities summing to >= n suffice.
func TestHeterogeneousBuffers(t *testing.T) {
	cases := [][]int{
		{1, 2, 3},    // n=6 over capacities 1+2+3
		{3, 3},       // n=6 over two 3-buffers
		{1, 1, 1, 3}, // n=6, mixed
		{6},          // n=6, single 6-buffer
	}
	for _, caps := range cases {
		t.Run(fmt.Sprint(caps), func(t *testing.T) {
			n := 0
			for _, c := range caps {
				n += c
			}
			pr := BufferedHeterogeneous(n, caps)
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = (i * 3) % n
			}
			runAndCheck(t, pr, inputs, &sim.RoundRobin{}, true)
			for seed := int64(0); seed < 5; seed++ {
				pr := BufferedHeterogeneous(n, caps)
				runAndCheck(t, pr, inputs, sim.NewRandom(seed), true)
			}
		})
	}
}

// TestHeterogeneousBuffersProperty fuzzes random capacity mixes summing to
// at least n (the Section 6.2 heterogeneous rule).
func TestHeterogeneousBuffersProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(5)
		var caps []int
		total := 0
		for total < n {
			c := 1 + rng.Intn(3)
			caps = append(caps, c)
			total += c
		}
		pr := BufferedHeterogeneous(n, caps)
		inputs := randInputs(rng, n, n)
		res := runAndCheck(t, pr, inputs, sim.NewRandom(rng.Int63()), true)
		if res.Steps == 0 {
			t.Fatal("no steps")
		}
		if pr.Locations != len(caps) {
			t.Fatalf("declared %d locations for %d capacities", pr.Locations, len(caps))
		}
	}
}

// BenchmarkHeterogeneousBuffers runs the variant over mixed capacities
// summing to n.
func BenchmarkHeterogeneousBuffers(b *testing.B) {
	caps := []int{1, 2, 5} // n = 8 over three buffers of differing capacity
	n := 8
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = (i * 3) % n
	}
	var fp int
	for i := 0; i < b.N; i++ {
		pr := BufferedHeterogeneous(n, caps)
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
}
