package consensus

import (
	"repro/internal/counter"
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file implements Theorem 9.4: n-consensus using O(n log n) single-bit
// locations supporting {read, write(1), write(0)} — or, equivalently,
// {read, test-and-set, reset} — by plugging a bounded-counter binary
// consensus over bits into Lemma 5.2, with each designated multi-valued
// location replaced by a run of n bit locations.

// unaryWidth is the per-component bit budget: Lemma 3.2 keeps counts within
// {0,...,3n-1}, so 3n bits per component can never wrap.
func unaryWidth(n int) int { return 3 * n }

// binBitRound returns the per-round binary consensus body over two unary
// bounded components (2 * 3n bit locations).
func binBitRound(n int, tas bool) BinaryRound {
	return func(p *sim.Proc, base int, bit int) int {
		var c counter.BoundedCounter
		if tas {
			c = counter.NewUnaryTAS(p, base, 2, unaryWidth(n))
		} else {
			c = counter.NewUnary(p, base, 2, unaryWidth(n))
		}
		return RaceBounded(c, n, bit)
	}
}

// binBitRoundStepper is binBitRound in forkable stepper form. A non-nil
// spare (a retired round stepper) is rebuilt in place.
func binBitRoundStepper(n int, tas bool) func(spare *raceStepper, binBase, bit int) *raceStepper {
	return func(spare *raceStepper, binBase, bit int) *raceStepper {
		var prevCM counter.Machine
		if spare != nil {
			prevCM = spare.cm
		}
		cm := counter.NewUnaryMachineInto(prevCM, binBase, 2, unaryWidth(n), tas)
		return newRaceStepper(spare, cm, n, bit, true)
	}
}

// binBitCost is the per-round binary consensus location count.
func binBitCost(n int) int { return 2 * unaryWidth(n) }

// BinaryBits solves binary consensus among n processes over 6n single-bit
// {read, write(0), write(1)} locations (the per-round building block).
func BinaryBits(n int) *Protocol {
	return &Protocol{
		Name:      "binary-bits",
		Set:       machine.SetReadWrite01,
		N:         n,
		Values:    2,
		Locations: binBitCost(n),
		Body: func(p *sim.Proc) int {
			return binBitRound(n, false)(p, 0, p.Input())
		},
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return binBitRoundStepper(n, false)(nil, 0, in)
			})
		},
	}
}

// WriteBits solves n-consensus using O(n log n) {read, write(0), write(1)}
// single-bit locations (Theorem 9.4).
func WriteBits(n int) *Protocol {
	slot := BitSlot{Values: n, SetOne: machine.OpWriteOne}
	return &Protocol{
		Name:      "write-bits",
		Set:       machine.SetReadWrite01,
		N:         n,
		Values:    n,
		Locations: lemma52Locations(n, binBitCost(n), slot),
		Body:      MultiValued(n, binBitCost(n), slot, binBitRound(n, false)),
		Steppers: func(inputs []int) []sim.Stepper {
			ops := bitSlotOps{values: n, setOne: machine.OpWriteOne}
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return newMVStepper(n, binBitCost(n), ops, in, binBitRoundStepper(n, false))
			})
		},
	}
}

// TASReset solves n-consensus using O(n log n) {read, test-and-set, reset}
// locations (Theorem 9.4's second instantiation; Table 1 row 4).
func TASReset(n int) *Protocol {
	slot := BitSlot{Values: n, SetOne: machine.OpTestAndSet}
	return &Protocol{
		Name:      "test-and-set+reset",
		Set:       machine.SetReadTASReset,
		N:         n,
		Values:    n,
		Locations: lemma52Locations(n, binBitCost(n), slot),
		Body:      MultiValued(n, binBitCost(n), slot, binBitRound(n, true)),
		Steppers: func(inputs []int) []sim.Stepper {
			ops := bitSlotOps{values: n, setOne: machine.OpTestAndSet}
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return newMVStepper(n, binBitCost(n), ops, in, binBitRoundStepper(n, true))
			})
		},
	}
}
