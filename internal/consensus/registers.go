package consensus

import (
	"repro/internal/counter"
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
		Steppers: func(inputs []int) []sim.Stepper {
			return registerSteppers(n, m, inputs, func(id int) swreg.Machine { return swreg.NewDirectMachine(0, n, id) })
		},
	}
}

// registerSteppers builds the forkable form of the racing loop over a
// register array, arr(id) being process id's view of it.
func registerSteppers(n, m int, inputs []int, arr func(id int) swreg.Machine) []sim.Stepper {
	return steppersOf(inputs, func(id, in int) sim.Stepper {
		return new(raceStepper).start(counter.NewRegistersMachine(arr(id), m), n, in, raceUnbounded)
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
