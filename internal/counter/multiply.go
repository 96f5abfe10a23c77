package counter

import (
	"math/big"

	"repro/internal/machine"
	"repro/internal/primes"
	"repro/internal/sim"
)

// Multiply is the prime-exponent m-component unbounded counter of
// Theorem 3.3, built from a single location supporting read and multiply
// (or fetch-and-multiply alone). The location must be initialized to 1;
// component v's count is the exponent of the (v+1)'st prime in the prime
// decomposition of the stored number.
type Multiply struct {
	p     *sim.Proc
	loc   int
	prms  []*big.Int
	fetch bool // use fetch-and-multiply for both updates and reads
}

// NewMultiply builds the counter view of process p over location loc with m
// components using {read, multiply}.
func NewMultiply(p *sim.Proc, loc, m int) *Multiply {
	return newMultiply(p, loc, m, false)
}

// NewFetchMultiply builds the counter using only {fetch-and-multiply}:
// updates multiply by a prime, reads multiply by 1 and use the returned
// previous value (Table 1's single-instruction row).
func NewFetchMultiply(p *sim.Proc, loc, m int) *Multiply {
	return newMultiply(p, loc, m, true)
}

func newMultiply(p *sim.Proc, loc, m int, fetch bool) *Multiply {
	ps := primes.First(m)
	big_ := make([]*big.Int, m)
	for i, q := range ps {
		big_[i] = big.NewInt(q)
	}
	return &Multiply{p: p, loc: loc, prms: big_, fetch: fetch}
}

// MultiplyInitial is the initial value the backing location requires.
func MultiplyInitial() machine.Value { return machine.Int(1) }

// Components returns m.
func (c *Multiply) Components() int { return len(c.prms) }

// Inc multiplies the location by the component's prime: one atomic step.
func (c *Multiply) Inc(v int) {
	op := machine.OpMultiply
	if c.fetch {
		op = machine.OpFetchAndMultiply
	}
	c.p.Apply(c.loc, op, c.prms[v])
}

// Scan reads the location once and factors out each component's prime. The
// single read is the linearization point, so the scan is atomic by
// construction.
func (c *Multiply) Scan() []int64 {
	var x machine.Value
	if c.fetch {
		// fetch-and-multiply(1) leaves the value unchanged and returns it.
		x = c.p.Apply(c.loc, machine.OpFetchAndMultiply, machine.Int(1))
	} else {
		x = c.p.Apply(c.loc, machine.OpRead)
	}
	return decodeFactors(make([]int64, len(c.prms)), x, c.prms)
}

// decodeFactors recovers per-component counts as prime multiplicities,
// written into out (one word per prime) and returned. It divides on int64
// arithmetic while x fits a word and falls back to big.Int only beyond it,
// as decodeDigits does. Pure local computation shared with the forkable
// MulMachine, which decodes into storage it owns.
func decodeFactors(out []int64, x machine.Value, prms []*big.Int) []int64 {
	clear(out)
	if w, ok := machine.AsInt64(x); ok {
		for v, q := range prms {
			for qw := q.Int64(); w%qw == 0; w /= qw {
				out[v]++
			}
		}
		return out
	}
	xb := new(big.Int).Set(machine.MustInt(x))
	for v, q := range prms {
		quo, rem := new(big.Int), new(big.Int)
		for {
			quo.QuoRem(xb, q, rem)
			if rem.Sign() != 0 {
				break
			}
			out[v]++
			xb.Set(quo)
		}
	}
	return out
}
