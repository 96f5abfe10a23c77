package counter

import (
	"math/big"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Add is the base-3n digit m-component bounded counter of Theorem 3.3,
// built from a single location supporting read and add (or fetch-and-add
// alone). The value stored is interpreted as a number written in base 3n
// whose (v+1)'st least significant digit is the count of component v.
// Counts must stay in {0,...,3n-1}; the racing algorithm of Lemma 3.2
// guarantees that.
type Add struct {
	p     *sim.Proc
	loc   int
	m     int
	base  *big.Int
	pows  []*big.Int
	fetch bool // use fetch-and-add for both updates and reads
}

// NewAdd builds the counter view of process p over location loc with m
// components, digit base 3n, using {read, add}.
func NewAdd(p *sim.Proc, loc, m, n int) *Add {
	return newAdd(p, loc, m, n, false)
}

// NewFetchAdd builds the counter using only {fetch-and-add}: updates add a
// power of the base, reads add 0 and use the returned previous value.
func NewFetchAdd(p *sim.Proc, loc, m, n int) *Add {
	return newAdd(p, loc, m, n, true)
}

func newAdd(p *sim.Proc, loc, m, n int, fetch bool) *Add {
	base := big.NewInt(int64(3 * n))
	pows := make([]*big.Int, m)
	pow := big.NewInt(1)
	for v := 0; v < m; v++ {
		pows[v] = new(big.Int).Set(pow)
		pow = new(big.Int).Mul(pow, base)
	}
	return &Add{p: p, loc: loc, m: m, base: base, pows: pows, fetch: fetch}
}

// Components returns m.
func (c *Add) Components() int { return c.m }

// Bound returns the exclusive upper bound 3n on any component's count.
func (c *Add) Bound() int64 { return c.base.Int64() }

// Inc adds (3n)^v: one atomic step.
func (c *Add) Inc(v int) { c.update(c.pows[v]) }

// Dec subtracts (3n)^v: one atomic step.
func (c *Add) Dec(v int) { c.update(new(big.Int).Neg(c.pows[v])) }

func (c *Add) update(delta *big.Int) {
	op := machine.OpAdd
	if c.fetch {
		op = machine.OpFetchAndAdd
	}
	c.p.Apply(c.loc, op, delta)
}

// Scan reads the location once and decomposes it into base-3n digits.
func (c *Add) Scan() []int64 {
	var x machine.Value
	if c.fetch {
		x = c.p.Apply(c.loc, machine.OpFetchAndAdd, machine.Int(0))
	} else {
		x = c.p.Apply(c.loc, machine.OpRead)
	}
	return decodeDigits(make([]int64, c.m), x, c.base)
}

// decodeDigits decomposes the numeric value x into its len(out) least
// significant base-`base` digits, written into out and returned, on int64
// arithmetic while x fits a word (truncated division, as big.Int.QuoRem).
// Pure local computation shared with the forkable AddMachine, which decodes
// into storage it owns.
func decodeDigits(out []int64, x machine.Value, base *big.Int) []int64 {
	if w, ok := machine.AsInt64(x); ok {
		b := base.Int64()
		for v := range out {
			out[v] = w % b
			w /= b
		}
		return out
	}
	xb := new(big.Int).Set(machine.MustInt(x))
	digit := new(big.Int)
	for v := range out {
		xb.QuoRem(xb, base, digit)
		out[v] = digit.Int64()
	}
	return out
}
