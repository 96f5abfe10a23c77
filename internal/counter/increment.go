package counter

import (
	"strconv"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Increment is the m-component unbounded counter over m locations
// supporting read and increment (Section 5, used by Theorem 5.3 with m=2).
// Component counts only grow, so a double collect yields an atomic scan.
type Increment struct {
	p    *sim.Proc
	base int // locations base..base+m-1
	m    int
	fai  bool // use fetch-and-increment (discarding the result)
}

// NewIncrement builds the counter view of process p over locations
// base..base+m-1 using the increment instruction.
func NewIncrement(p *sim.Proc, base, m int) *Increment {
	return &Increment{p: p, base: base, m: m}
}

// NewFetchIncrement is NewIncrement but updates with fetch-and-increment,
// matching Table 1's {read, write(x), fetch-and-increment} row.
func NewFetchIncrement(p *sim.Proc, base, m int) *Increment {
	return &Increment{p: p, base: base, m: m, fai: true}
}

// Components returns m.
func (c *Increment) Components() int { return c.m }

// Inc increments component v's location: one atomic step.
func (c *Increment) Inc(v int) {
	if c.fai {
		c.p.Apply(c.base+v, machine.OpFetchAndIncrement)
		return
	}
	c.p.Apply(c.base+v, machine.OpIncrement)
}

// Scan performs the double-collect snapshot over the m locations.
func (c *Increment) Scan() []int64 {
	return doubleCollect(func() ([]int64, string) {
		counts := make([]int64, c.m)
		fp := make([]byte, 0, 4*c.m)
		for v := 0; v < c.m; v++ {
			x := machine.MustInt(c.p.Apply(c.base+v, machine.OpRead))
			counts[v] = x.Int64()
			fp = append(strconv.AppendInt(fp, counts[v], 10), ',')
		}
		return counts, string(fp)
	})
}
