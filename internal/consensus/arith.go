package consensus

import (
	"repro/internal/counter"
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file implements Theorem 3.3 and the single-location rows of Table 1:
// n-consensus using one memory location supporting read together with
// multiply, add or set-bit — plus the fetch-and-add / fetch-and-multiply
// variants that need no separate read at all.

// Multiply solves n-consensus with a single {read, multiply(x)} location
// via the prime-exponent unbounded counter (Theorem 3.3).
func Multiply(n int) *Protocol { return MultiplyValues(n, n) }

// MultiplyValues is the m-valued form of Multiply (Lemma 3.1 is stated for
// arbitrary m): n processes, inputs in [0, m).
func MultiplyValues(n, m int) *Protocol {
	return &Protocol{
		Name:      "multiply",
		Set:       machine.SetReadMultiply,
		N:         n,
		Values:    m,
		Locations: 1,
		Initial:   map[int]machine.Value{0: counter.MultiplyInitial()},
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return new(raceStepper).start(counter.NewMulMachine(0, m, false), n, in, raceUnbounded)
			})
		},
	}
}

// FetchMultiply solves n-consensus with a single {fetch-and-multiply(x)}
// location: multiply-by-1 doubles as the read (Table 1).
func FetchMultiply(n int) *Protocol {
	return &Protocol{
		Name:      "fetch-and-multiply",
		Set:       machine.SetFetchMultiply,
		N:         n,
		Values:    n,
		Locations: 1,
		Initial:   map[int]machine.Value{0: counter.MultiplyInitial()},
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return new(raceStepper).start(counter.NewMulMachine(0, n, true), n, in, raceUnbounded)
			})
		},
	}
}

// Add solves n-consensus with a single {read, add(x)} location via the
// base-3n bounded counter and Lemma 3.2 (Theorem 3.3).
func Add(n int) *Protocol { return AddValues(n, n) }

// AddValues is the m-valued form of Add: the bounded counter gets m
// components, digits still base 3n.
func AddValues(n, m int) *Protocol {
	return &Protocol{
		Name:      "add",
		Set:       machine.SetReadAdd,
		N:         n,
		Values:    m,
		Locations: 1,
		Steppers:  func(inputs []int) []sim.Stepper { return addSteppers(inputs, m, n, false) },
	}
}

// FetchAdd solves n-consensus with a single {fetch-and-add(x)} location:
// add-of-0 doubles as the read (Table 1).
func FetchAdd(n int) *Protocol {
	return &Protocol{
		Name:      "fetch-and-add",
		Set:       machine.SetFAA,
		N:         n,
		Values:    n,
		Locations: 1,
		Steppers:  func(inputs []int) []sim.Stepper { return addSteppers(inputs, n, n, true) },
	}
}

// addSteppers builds the racing steppers of Add, AddValues and FetchAdd. The
// m powers of 3n and their instructions are built once per system and
// shared: each process gets a fresh fork of one prototype machine, a struct
// copy, instead of rebuilding the O(m²)-bit power table for itself.
func addSteppers(inputs []int, m, n int, fetch bool) []sim.Stepper {
	proto := counter.NewAddMachine(0, m, n, fetch)
	return steppersOf(inputs, func(_, in int) sim.Stepper {
		return new(raceStepper).start(proto.ForkInto(nil).(*counter.AddMachine), n, in, raceBounded)
	})
}

// SetBit solves n-consensus with a single {read, set-bit(x)} location via
// the bit-block unbounded counter (Theorem 3.3).
func SetBit(n int) *Protocol { return SetBitValues(n, n) }

// SetBitValues is the m-valued form of SetBit: blocks of m*n bits.
func SetBitValues(n, m int) *Protocol {
	return &Protocol{
		Name:      "set-bit",
		Set:       machine.SetReadSetBit,
		N:         n,
		Values:    m,
		Locations: 1,
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(i, in int) sim.Stepper {
				return new(raceStepper).start(counter.NewSetBitMachine(0, m, n, i), n, in, raceUnbounded)
			})
		},
	}
}
