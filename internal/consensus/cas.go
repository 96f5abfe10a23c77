package consensus

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// CAS solves n-consensus — wait-free, not merely obstruction-free — with a
// single location supporting only compare-and-swap (Table 1 row 10). Each
// process tries to install its input (offset by one so the initial 0 means
// "empty"); the first to succeed wins, and every process learns the winner
// from the instruction's return value. CAS(x, x) serves as the read.
func CAS(n int) *Protocol {
	return &Protocol{
		Name:      "compare-and-swap",
		Set:       machine.SetCAS,
		N:         n,
		Values:    n,
		Locations: 1,
		WaitFree:  true,
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper { return newCASStepper(in) })
		},
	}
}
