package consensus

import (
	"math"
	"math/big"

	"repro/internal/machine"
	"repro/internal/primes"
	"repro/internal/sim"
)

// This file implements Theorem 4.2: n-consensus for any number of processes
// using exactly two max-registers, which is tight by Theorem 4.1.
//
// The max-registers hold pairs (r, x) — round r, value x — compared in
// lexicographic order. Following the paper, a pair is encoded as the number
// (x+1)*y^r for a fixed prime y > n, which is order-isomorphic to the
// lexicographic order on pairs with 0 <= x < n.

// MaxRegPair is the (round, value) pair stored in a max-register; exported
// for tests of the encoding.
type MaxRegPair struct {
	R int64
	X int
}

// EncodePair maps (r, x) to (x+1)*y^r.
func EncodePair(p MaxRegPair, y int64) *big.Int {
	v := big.NewInt(int64(p.X) + 1)
	yy := big.NewInt(y)
	for i := int64(0); i < p.R; i++ {
		v.Mul(v, yy)
	}
	return v
}

// DecodePair inverts EncodePair: r is the multiplicity of y in w and
// x = w/y^r - 1 (unique because 0 < x+1 <= n < y).
func DecodePair(w *big.Int, y int64) MaxRegPair {
	yy := big.NewInt(y)
	r := int64(0)
	v := new(big.Int).Set(w)
	quo, rem := new(big.Int), new(big.Int)
	for {
		quo.QuoRem(v, yy, rem)
		if rem.Sign() != 0 || quo.Sign() == 0 {
			break
		}
		v.Set(quo)
		r++
	}
	return MaxRegPair{R: r, X: int(v.Int64()) - 1}
}

// encodePairValue is EncodePair as a machine word while (x+1)*y^r fits
// an int64, and as a *big.Int beyond.
func encodePairValue(p MaxRegPair, y int64) machine.Value {
	v := int64(p.X) + 1
	for i := int64(0); i < p.R; i++ {
		if v > math.MaxInt64/y {
			return EncodePair(p, y)
		}
		v *= y
	}
	return machine.Word(v)
}

// decodePairValue is DecodePair over a numeric register value, on int64
// arithmetic while the value fits a word.
func decodePairValue(w machine.Value, y int64) MaxRegPair {
	v, ok := machine.AsInt64(w)
	if !ok {
		return DecodePair(machine.MustInt(w), y)
	}
	r := int64(0)
	for v != 0 && v%y == 0 {
		v /= y
		r++
	}
	return MaxRegPair{R: r, X: int(v) - 1}
}

// MaxRegisters solves n-consensus using two {read-max, write-max} locations
// (Theorem 4.2).
func MaxRegisters(n int) *Protocol {
	y := primes.Next(int64(n))
	one := EncodePair(MaxRegPair{R: 0, X: 0}, y) // both registers start at (0,0)
	return &Protocol{
		Name:      "max-registers",
		Set:       machine.SetMaxRegister,
		N:         n,
		Values:    n,
		Locations: 2,
		Initial: map[int]machine.Value{
			0: new(big.Int).Set(one),
			1: new(big.Int).Set(one),
		},
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(_, in int) sim.Stepper {
				return newMaxRegStepper(in, y)
			})
		},
	}
}
