package counter

import (
	"strconv"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Unary is an m-component bounded counter over single-bit locations, used by
// the O(n log n) upper bounds of Theorem 9.4. Component v's count is the
// number of set bits among its `width` dedicated locations; incrementing
// sets the lowest clear bit, decrementing clears the highest set bit, and a
// scan double-collects all bits.
//
// This is a reconstruction in the spirit of Bowman's technical report (the
// paper's [Bow11], which is cited for the 2n-bit binary consensus building
// block): the racing algorithm of Lemma 3.2 keeps every component's count
// within {0,...,3n-1}, so a width of 3n bits per component suffices and no
// wrap-around ever occurs. See DESIGN.md for the substitution note.
type Unary struct {
	p          *sim.Proc
	base       int
	m          int
	width      int
	setOp      machine.Op // write(1) or test-and-set
	clearOp    machine.Op // write(0) or reset
	confirming int        // extra identical collects required by Scan
}

// NewUnary builds the counter view of process p over m components of
// `width` bits each starting at location base, using write(1)/write(0).
func NewUnary(p *sim.Proc, base, m, width int) *Unary {
	return &Unary{p: p, base: base, m: m, width: width,
		setOp: machine.OpWriteOne, clearOp: machine.OpWriteZero, confirming: 2}
}

// NewUnaryTAS is NewUnary with test-and-set/reset as the bit operations
// (Table 1's {read, test-and-set, reset} row).
func NewUnaryTAS(p *sim.Proc, base, m, width int) *Unary {
	c := NewUnary(p, base, m, width)
	c.setOp = machine.OpTestAndSet
	c.clearOp = machine.OpReset
	return c
}

// Components returns m.
func (c *Unary) Components() int { return c.m }

// Locations returns the total number of bit locations the counter occupies.
func (c *Unary) Locations() int { return c.m * c.width }

func (c *Unary) loc(v, j int) int { return c.base + v*c.width + j }

func (c *Unary) bit(v, j int) bool {
	x := machine.MustInt(c.p.Apply(c.loc(v, j), machine.OpRead))
	return x.Sign() != 0
}

// Inc sets the lowest clear bit of component v (retrying from the bottom if
// a concurrent update raced it away).
func (c *Unary) Inc(v int) {
	for {
		for j := 0; j < c.width; j++ {
			if !c.bit(v, j) {
				c.p.Apply(c.loc(v, j), c.setOp)
				return
			}
		}
		// All bits observed set: the Lemma 3.2 invariant bounds counts well
		// below width, so this is transient contention; rescan.
	}
}

// Dec clears the highest set bit of component v.
func (c *Unary) Dec(v int) {
	for {
		for j := c.width - 1; j >= 0; j-- {
			if c.bit(v, j) {
				c.p.Apply(c.loc(v, j), c.clearOp)
				return
			}
		}
		// All bits observed clear: transient; rescan. The racing algorithm
		// only decrements components it observed holding at least n.
	}
}

// Scan collects all m*width bits until `confirming` consecutive identical
// collects occur, then returns per-component popcounts.
func (c *Unary) Scan() []int64 {
	collect := func() ([]int64, string) {
		counts := make([]int64, c.m)
		var fp []byte
		for v := 0; v < c.m; v++ {
			for j := 0; j < c.width; j++ {
				if c.bit(v, j) {
					counts[v]++
					fp = strconv.AppendInt(fp, int64(v), 10)
					fp = append(fp, '.')
					fp = strconv.AppendInt(fp, int64(j), 10)
					fp = append(fp, ',')
				}
			}
		}
		return counts, string(fp)
	}
	cur, fp := collect()
	same := 1
	for same < c.confirming {
		next, fp2 := collect()
		if fp2 == fp {
			same++
		} else {
			same = 1
		}
		cur, fp = next, fp2
	}
	return cur
}
