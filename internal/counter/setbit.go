package counter

import (
	"math/bits"

	"repro/internal/machine"
	"repro/internal/sim"
)

// SetBit is the bit-block m-component unbounded counter of Theorem 3.3,
// built from a single location supporting read and set-bit. The location is
// partitioned into consecutive blocks of m*n bits. When process i increments
// component v for the (b+1)'st time, it sets bit b*(m*n) + v*n + i. Every
// set bit therefore represents exactly one increment, and a single read
// recovers all counts.
type SetBit struct {
	p    *sim.Proc
	loc  int
	m, n int
	mine []int64 // how many times this process has incremented each component
}

// NewSetBit builds the counter view of process p over location loc with m
// components shared by n processes.
func NewSetBit(p *sim.Proc, loc, m int) *SetBit {
	return &SetBit{p: p, loc: loc, m: m, n: p.N(), mine: make([]int64, m)}
}

// Components returns m.
func (c *SetBit) Components() int { return c.m }

// Inc sets the next bit in this process's lane of component v: one step.
func (c *SetBit) Inc(v int) {
	b := c.mine[v]
	c.mine[v]++
	block := int64(c.m * c.n)
	idx := b*block + int64(v*c.n+c.p.ID())
	c.p.Apply(c.loc, machine.OpSetBit, machine.Int(idx))
}

// Scan reads the location once; the count of component v is the number of
// set bits lying in component v's lanes across all blocks.
func (c *SetBit) Scan() []int64 {
	return decodeBitBlocks(make([]int64, c.m), c.p.Apply(c.loc, machine.OpRead), c.n)
}

// decodeBitBlocks counts the set bits of the numeric value x per component
// lane into out (one word per component) and returns it, walking a
// non-negative word's bits without a big.Int. Pure local computation shared
// with the forkable SetBitMachine, which decodes into storage it owns.
func decodeBitBlocks(out []int64, x machine.Value, n int) []int64 {
	clear(out)
	block := len(out) * n
	if w, ok := machine.AsInt64(x); ok && w >= 0 {
		for u := uint64(w); u != 0; u &= u - 1 {
			j := bits.TrailingZeros64(u)
			out[(j%block)/n]++
		}
		return out
	}
	xb := machine.MustInt(x)
	for j := 0; j < xb.BitLen(); j++ {
		if xb.Bit(j) == 1 {
			out[(j%block)/n]++
		}
	}
	return out
}
