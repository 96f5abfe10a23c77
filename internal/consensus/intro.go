package consensus

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file implements the two single-location wait-free binary consensus
// protocols from the paper's introduction — the motivating examples showing
// that instructions which are individually weak (consensus number <= 2 as
// objects) become universal when a single memory location supports both.

// IntroFAA2TAS solves wait-free binary consensus for any number of
// processes with one location supporting {fetch-and-add(x), test-and-set()}:
// input 0 performs fetch-and-add(2), input 1 performs test-and-set(); a
// returned odd value or a returned 0 from test-and-set means 1 wins,
// anything else means 0 wins.
func IntroFAA2TAS(n int) *Protocol {
	return &Protocol{
		Name:      "intro-faa2-tas",
		Set:       machine.SetFAATAS,
		N:         n,
		Values:    2,
		Locations: 1,
		WaitFree:  true,
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return &introFAA2TASStepper{input: in}
			})
		},
	}
}

// IntroDecMul solves wait-free binary consensus for n processes with one
// location, initialized to 1, supporting {read(), decrement(),
// multiply(x)}: input 0 decrements, input 1 multiplies by n, and the
// process then reads — a positive value means 1 wins, otherwise 0 wins.
func IntroDecMul(n int) *Protocol {
	return &Protocol{
		Name:      "intro-dec-mul",
		Set:       machine.SetReadDecMul,
		N:         n,
		Values:    2,
		Locations: 1,
		WaitFree:  true,
		Initial:   map[int]machine.Value{0: machine.Int(1)},
		Steppers: func(inputs []int) []sim.Stepper {
			mulOp := &sim.OpInfo{Loc: 0, Op: machine.OpMultiply, Args: []machine.Value{machine.Int(int64(n))}}
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return &introDecMulStepper{input: in, mulOp: mulOp}
			})
		},
	}
}
