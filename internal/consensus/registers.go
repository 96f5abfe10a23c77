package consensus

import (
	"repro/internal/counter"
	"repro/internal/history"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/swreg"
)

// Registers solves n-consensus using n {read, write(x)} locations — one
// single-writer register per process — by racing counters over the register
// array (Table 1 row 3; tight by the n-register lower bound of [EGZ18]
// cited in the paper).
func Registers(n int) *Protocol { return RegistersValues(n, n) }

// RegistersValues is the m-valued form of Registers: still n single-writer
// registers, each carrying an m-component contribution vector.
func RegistersValues(n, m int) *Protocol {
	return &Protocol{
		Name:      "registers",
		Set:       machine.SetReadWrite,
		N:         n,
		Values:    m,
		Locations: n,
		Body: func(p *sim.Proc) int {
			arr := swreg.NewDirect(p, 0)
			return RaceUnbounded(counter.NewRegisters(arr, m), n, p.Input())
		},
		Steppers: func(inputs []int) []sim.Stepper {
			return registerSteppers(n, m, inputs, func(id int) swreg.Machine { return swreg.NewDirectMachine(0, n, id) })
		},
	}
}

// registerSteppers builds the forkable form of the racing loop over a
// register array, arr(id) being process id's view of it.
func registerSteppers(n, m int, inputs []int, arr func(id int) swreg.Machine) []sim.Stepper {
	return steppersOf(inputs, func(id, in int) sim.Stepper {
		return newRaceStepper(nil, counter.NewRegistersMachine(arr(id), m), n, in, false)
	})
}

// Buffered solves n-consensus using ceil(n/l) l-buffers (Theorem 6.3): the
// buffers simulate n single-writer registers through history objects
// (Lemmas 6.1 and 6.2), and racing counters run on top. The lower bound
// ceil((n-1)/l) of Theorem 6.8 makes this tight except when l divides n-1.
func Buffered(n, l int) *Protocol { return BufferedValues(n, l, n) }

// BufferedValues is the m-valued form of Buffered: space stays ceil(n/l).
func BufferedValues(n, l, m int) *Protocol {
	locs := (n + l - 1) / l
	return &Protocol{
		Name:      "l-buffers",
		Set:       machine.SetBuffers(l),
		N:         n,
		Values:    m,
		Locations: locs,
		Body: func(p *sim.Proc) int {
			arr := swreg.NewBuffered(p, 0, l)
			return RaceUnbounded(counter.NewRegisters(arr, m), n, p.Input())
		},
		Steppers: func(inputs []int) []sim.Stepper {
			return registerSteppers(n, m, inputs, func(id int) swreg.Machine { return swreg.NewBufferedMachine(0, n, l, id) })
		},
	}
}

// BufferedMultiAssign is Buffered on a memory that additionally offers
// atomic multiple assignment (Section 7). Multiple assignment cannot reduce
// the space below ceil((n-1)/2l) (Theorem 7.5), and the upper bound is
// unchanged — this protocol simply certifies that the algorithm still runs,
// and the harness measures the same footprint.
func BufferedMultiAssign(n, l int) *Protocol {
	pr := Buffered(n, l)
	pr.Name = "l-buffers+multi-assignment"
	pr.Set = machine.SetBuffersMultiAssign(l)
	return pr
}

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
			return RaceUnbounded(counter.NewRegisters(arr, n), n, p.Input())
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
