package consensus

import (
	"repro/internal/counter"
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file implements Theorem 5.3: n-consensus using O(log n) locations
// supporting {read, write(x), increment} — binary consensus via racing over
// a 2-component increment counter (2 locations), lifted to n values by
// Lemma 5.2. The fetch-and-increment variant of Table 1's next row runs the
// same algorithm with fetch-and-increment as the update.

// incrementRound returns the per-round binary consensus body over two
// increment locations.
func incrementRound(n int, fai bool) BinaryRound {
	return func(p *sim.Proc, base int, bit int) int {
		var c counter.Counter
		if fai {
			c = counter.NewFetchIncrement(p, base, 2)
		} else {
			c = counter.NewIncrement(p, base, 2)
		}
		return RaceUnbounded(c, n, bit)
	}
}

// incrementRoundStepper is incrementRound in forkable stepper form. A
// non-nil spare (a retired round stepper) is rebuilt in place, machine and
// collect buffers included.
func incrementRoundStepper(n int, fai bool) func(spare *raceStepper, binBase, bit int) *raceStepper {
	return func(spare *raceStepper, binBase, bit int) *raceStepper {
		var prevCM counter.Machine
		if spare != nil {
			prevCM = spare.cm
		}
		cm := counter.NewIncMachineInto(prevCM, binBase, 2, fai)
		return newRaceStepper(spare, cm, n, bit, false)
	}
}

// IncrementBinary solves binary consensus among n processes using two
// {read, increment} locations (the building block of Theorem 5.3).
func IncrementBinary(n int) *Protocol {
	return &Protocol{
		Name:      "increment-binary",
		Set:       machine.SetReadWriteIncrement,
		N:         n,
		Values:    2,
		Locations: 2,
		Body: func(p *sim.Proc) int {
			return incrementRound(n, false)(p, 0, p.Input())
		},
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return incrementRoundStepper(n, false)(nil, 0, in)
			})
		},
	}
}

// Increment solves n-consensus using (2+2)*ceil(log2 n) - 2 locations
// supporting {read, write(x), increment} (Theorem 5.3).
func Increment(n int) *Protocol {
	slot := MultiSlot{}
	return &Protocol{
		Name:      "increment",
		Set:       machine.SetReadWriteIncrement,
		N:         n,
		Values:    n,
		Locations: lemma52Locations(n, 2, slot),
		Body:      MultiValued(n, 2, slot, incrementRound(n, false)),
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return newMVStepper(n, 2, multiSlotOps{}, in, incrementRoundStepper(n, false))
			})
		},
	}
}

// FetchIncrement solves n-consensus with {read, write(x),
// fetch-and-increment} using the same construction (Table 1 row 8).
func FetchIncrement(n int) *Protocol {
	slot := MultiSlot{}
	return &Protocol{
		Name:      "fetch-and-increment",
		Set:       machine.SetReadWriteFAI,
		N:         n,
		Values:    n,
		Locations: lemma52Locations(n, 2, slot),
		Body:      MultiValued(n, 2, slot, incrementRound(n, true)),
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return newMVStepper(n, 2, multiSlotOps{}, in, incrementRoundStepper(n, true))
			})
		},
	}
}
