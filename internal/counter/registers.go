package counter

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/swreg"
)

// Registers is an m-component unbounded counter over an array of n
// single-writer registers: each process records in its own register how
// many times it has incremented each component; a scan double-collects the
// array and sums component-wise. Used by the {read, write(x)} row (direct
// arrays) and by Theorem 6.3 (buffered arrays).
type Registers struct {
	arr  swreg.Array
	m    int
	mine []int64
}

// NewRegisters builds the counter view of one process over arr with m
// components.
func NewRegisters(arr swreg.Array, m int) *Registers {
	return &Registers{arr: arr, m: m, mine: make([]int64, m)}
}

// Components returns m.
func (c *Registers) Components() int { return c.m }

// Inc bumps this process's contribution to component v and publishes the
// whole contribution vector in its register.
func (c *Registers) Inc(v int) {
	c.mine[v]++
	out := make([]int64, c.m)
	copy(out, c.mine)
	c.arr.Write(out)
}

// Scan double-collects the register array and sums contributions.
func (c *Registers) Scan() []int64 {
	return doubleCollect(func() ([]int64, string) {
		vals, fp := c.arr.Collect()
		counts := make([]int64, c.m)
		for _, v := range vals {
			if v == nil {
				continue
			}
			for i, x := range v.([]int64) {
				counts[i] += x
			}
		}
		return counts, fp
	})
}

// RegistersMachine is the forkable twin of Registers over a swreg.Machine:
// the same instruction stream, with the contribution tallies and the scan's
// progress in plain fields. A scan compares consecutive collects by their
// register version vectors (the integers the array fingerprint encodes)
// and sums contributions as each read's result arrives.
type RegistersMachine struct {
	arr  swreg.Machine
	m    int
	mine []int64
	op   opKind
	j    int     // read of the collect in flight
	vers []int64 // this collect's register versions, filled through j
	sums []int64 // this collect's component sums, through read j
	// prev holds the previous collect's versions while havePrev is set.
	prev     []int64
	havePrev bool
	counts   []int64
}

// NewRegistersMachine builds the counter machine of one process over arr
// with m components.
func NewRegistersMachine(arr swreg.Machine, m int) *RegistersMachine {
	n := arr.Registers()
	return &RegistersMachine{arr: arr, m: m, mine: make([]int64, m),
		vers: make([]int64, n), sums: make([]int64, m), prev: make([]int64, n)}
}

func (c *RegistersMachine) Components() int { return c.m }

func (c *RegistersMachine) Counts() []int64 { return c.counts }

// ForkInto copies every slice into prev's storage. All of them are private:
// the vectors a write publishes are fresh allocations (StartInc), so no
// buffer reused here can be one another process reads back from memory.
func (c *RegistersMachine) ForkInto(prev Machine) Machine {
	p, ok := prev.(*RegistersMachine)
	if !ok {
		p = new(RegistersMachine)
	}
	old := *p
	*p = *c
	p.arr = old.arr
	c.arr.ForkInto(&p.arr)
	p.mine = append(old.mine[:0], c.mine...)
	p.vers = append(old.vers[:0], c.vers...)
	p.sums = append(old.sums[:0], c.sums...)
	p.prev = append(old.prev[:0], c.prev...)
	p.counts = appendInto(old.counts, c.counts)
	return p
}

func (c *RegistersMachine) Key() uint64 {
	h := mixKey(0x72656730, uint64(c.op)|uint64(c.j)<<8)
	h = mixKey(h, c.arr.Key())
	h = mixCounts(h, c.mine)
	if c.op == opScan {
		// Both are zeroed at each collect's start, so their unread tails
		// hash the same however the scan got here.
		h = mixCounts(h, c.vers)
		h = mixCounts(h, c.sums)
	}
	if !c.havePrev {
		return mixKey(h, 0)
	}
	return mixCounts(mixKey(h, 1), c.prev)
}

// StartInc bumps this process's contribution to component v and publishes
// the whole contribution vector, in a fresh allocation: a published vector
// is immutable, since other processes' collects read it back.
func (c *RegistersMachine) StartInc(v int, next *sim.OpInfo) {
	c.mine[v]++
	out := make([]int64, c.m)
	copy(out, c.mine)
	c.op = opInc
	c.arr.StartWrite(out, next)
}

func (c *RegistersMachine) StartDec(int, *sim.OpInfo) {
	panic("counter: RegistersMachine is unbounded; Dec unsupported")
}

func (c *RegistersMachine) StartScan(next *sim.OpInfo) {
	c.op, c.havePrev = opScan, false
	c.startCollect(next)
}

func (c *RegistersMachine) startCollect(next *sim.OpInfo) {
	c.j = 0
	clear(c.vers)
	clear(c.sums)
	c.arr.ReadOp(0, next)
}

func (c *RegistersMachine) Step(res machine.Value, next *sim.OpInfo) bool {
	switch c.op {
	case opInc:
		if c.arr.WriteStep(res, next) {
			return true
		}
	case opScan:
		c.arr.Absorb(c.j, res, c.vers, c.sums)
		if c.j++; c.j < c.arr.Reads() {
			c.arr.ReadOp(c.j, next)
			return true
		}
		// One collect complete: the double-collect rule of doubleCollect.
		if !c.havePrev || !equalCounts(c.vers, c.prev) {
			c.prev = append(c.prev[:0], c.vers...)
			c.havePrev = true
			c.startCollect(next)
			return true
		}
		c.counts = append(c.counts[:0], c.sums...)
		c.j, c.havePrev = 0, false
		clear(c.vers)
		clear(c.sums)
	}
	c.op = opIdle
	return false
}
