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

// incrementRoundStepper builds the per-round binary consensus: the unbounded
// race over two increment locations.
func incrementRoundStepper(n int, fai bool) roundBuilder {
	return func(sub *raceStepper, binBase, bit int) *raceStepper {
		return sub.start(counter.NewIncMachineInto(sub.cm, binBase, 2, fai), n, bit, raceUnbounded)
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
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return incrementRoundStepper(n, false)(new(raceStepper), 0, in)
			})
		},
	}
}

// Increment solves n-consensus using (2+2)*ceil(log2 n) - 2 locations
// supporting {read, write(x), increment} (Theorem 5.3).
func Increment(n int) *Protocol {
	return &Protocol{
		Name:      "increment",
		Set:       machine.SetReadWriteIncrement,
		N:         n,
		Values:    n,
		Locations: lemma52Locations(n, 2, multiSlotOps{}.size()),
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
	return &Protocol{
		Name:      "fetch-and-increment",
		Set:       machine.SetReadWriteFAI,
		N:         n,
		Values:    n,
		Locations: lemma52Locations(n, 2, multiSlotOps{}.size()),
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return newMVStepper(n, 2, multiSlotOps{}, in, incrementRoundStepper(n, true))
			})
		},
	}
}
