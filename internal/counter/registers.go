package counter

import (
	"slices"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/swreg"
)

// RegistersMachine is an m-component unbounded counter over an array of n
// single-writer registers (a swreg.Machine): each process records in its
// own register how many times it has incremented each component, and a
// scan double-collects the array and sums component-wise. Used by the
// {read, write(x)} row (direct arrays) and by Theorem 6.3 (buffered
// arrays). A scan compares consecutive collects by their register version
// vectors and sums contributions as each read's result arrives.
type RegistersMachine struct {
	arr swreg.Machine
	m   int
	op  opKind
	j   int // read of the collect in flight
	// havePrev marks that the scan in flight has completed a collect, whose
	// versions the prev words hold.
	havePrev bool
	// buf holds, m words each, this process's contributions (mine), this
	// collect's component sums through read j (sums) and the last completed
	// scan (counts); then, one word per register, this collect's versions
	// filled through j (vers) and the previous collect's (prev). Nothing in
	// it is ever published: a write publishes a fresh vector (StartInc).
	buf []int64
}

// NewRegistersMachine builds the counter machine of one process over arr
// with m components.
func NewRegistersMachine(arr swreg.Machine, m int) *RegistersMachine {
	return &RegistersMachine{arr: arr, m: m, buf: make([]int64, 3*m+2*arr.Registers())}
}

func (c *RegistersMachine) Components() int { return c.m }

func (c *RegistersMachine) mine() []int64 { return c.buf[:c.m] }

func (c *RegistersMachine) sums() []int64 { return c.buf[c.m : 2*c.m] }

func (c *RegistersMachine) Counts() []int64 { return c.buf[2*c.m : 3*c.m] }

func (c *RegistersMachine) vers() []int64 {
	return c.buf[3*c.m : 3*c.m+c.arr.Registers()]
}

func (c *RegistersMachine) prev() []int64 { return c.buf[3*c.m+c.arr.Registers():] }

func (c *RegistersMachine) ForkInto(prev Machine) Machine {
	p := sim.ForkTarget[RegistersMachine](prev)
	buf := p.buf
	*p = *c
	p.buf = append(buf[:0], c.buf...)
	return p
}

// Key has no symmetric form: each process writes its own register.
func (c *RegistersMachine) Key(relabel func(int) int) (uint64, bool) {
	if relabel != nil {
		return 0, false
	}
	h := sim.MixKey(0x72656730, uint64(c.op)|uint64(c.j)<<8)
	h = sim.MixKey(h, c.arr.Key())
	h = mixCounts(h, c.mine())
	if c.op == opScan {
		// Both are zeroed at each collect's start, so their unread tails
		// hash the same however the scan got here.
		h = mixCounts(h, c.vers())
		h = mixCounts(h, c.sums())
	}
	if !c.havePrev {
		return sim.MixKey(h, 0), true
	}
	return mixCounts(sim.MixKey(h, 1), c.prev()), true
}

// StartInc bumps this process's contribution to component v and publishes
// the whole contribution vector, in a fresh allocation: a published vector
// is immutable, since other processes' collects read it back.
func (c *RegistersMachine) StartInc(v int, next *sim.OpInfo) {
	c.mine()[v]++
	out := make([]int64, c.m)
	copy(out, c.mine())
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
	clear(c.vers())
	clear(c.sums())
	c.arr.ReadOp(0, next)
}

func (c *RegistersMachine) Step(res machine.Value, next *sim.OpInfo) bool {
	switch c.op {
	case opInc:
		if c.arr.WriteStep(res, next) {
			return true
		}
	case opScan:
		c.arr.Absorb(c.j, res, c.vers(), c.sums())
		if c.j++; c.j < c.arr.Reads() {
			c.arr.ReadOp(c.j, next)
			return true
		}
		// One collect complete: two equal consecutive version vectors
		// form the snapshot.
		if !c.havePrev || !slices.Equal(c.vers(), c.prev()) {
			copy(c.prev(), c.vers())
			c.havePrev = true
			c.startCollect(next)
			return true
		}
		copy(c.Counts(), c.sums())
		c.j, c.havePrev = 0, false
		clear(c.vers())
		clear(c.sums())
	}
	c.op = opIdle
	return false
}
