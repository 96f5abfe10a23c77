package counter

import (
	"slices"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TracksMachine is the m-component monotone counter over unboundedly many
// binary locations of Section 9 (after Guerraoui and Ruppert): each
// component has an unbounded "track" of locations that are flipped from 0
// to 1 in sequence. The count of a track is the length of its prefix of 1s.
// With tas, test-and-set (its result ignored) simulates write(1)
// (Theorem 9.3).
//
// Increments by different processes may land on the same location and merge
// into one; that keeps counts monotone and never loses a solo process's
// progress, which is all the racing-counters argument needs (each process
// performs at most one increment between scans).
//
// Track v's position k lives at location base + k*m + v, so memory grows
// with the longest track; the measured footprint is the space consumption
// Table 1's first row declares unbounded.
//
// Every track read branches on its result — a 1 moves along the track, a 0
// moves to the next track — so no collect read is certain in advance; only
// a scan's very first read is.
type TracksMachine struct {
	base, m int
	tas     bool
	op      opKind
	v       int // track of the in-flight scan read; 0 outside scans
	// havePrev marks that the scan in flight has completed a collect, held
	// in the prev words. A completed collect's counts are the low-water
	// marks themselves, so the collect in progress needs no words of its
	// own.
	havePrev bool
	// buf holds the low-water marks (low: each track's first position not
	// known to be 1), the previous collect (prev) and the last completed
	// scan (counts), m words each.
	buf []int64
}

// NewTracksMachine builds the counter machine of m tracks starting at
// location base, advancing them with write(1), or with test-and-set when
// tas is set.
func NewTracksMachine(base, m int, tas bool) *TracksMachine {
	return &TracksMachine{base: base, m: m, tas: tas, buf: make([]int64, 3*m)}
}

func (c *TracksMachine) Components() int { return c.m }

func (c *TracksMachine) low() []int64 { return c.buf[:c.m] }

func (c *TracksMachine) prev() []int64 { return c.buf[c.m : 2*c.m] }

func (c *TracksMachine) Counts() []int64 { return c.buf[2*c.m:] }

func (c *TracksMachine) ForkInto(prev Machine) Machine {
	p := sim.ForkTarget[TracksMachine](prev)
	buf := p.buf
	*p = *c
	p.buf = append(buf[:0], c.buf...)
	return p
}

// Key has no symmetric form: the tracks' location span is unbounded.
func (c *TracksMachine) Key(relabel func(int) int) (uint64, bool) {
	if relabel != nil {
		return 0, false
	}
	h := sim.MixKey(0x74726b30, uint64(c.op)|uint64(c.v)<<8)
	h = mixCounts(h, c.low())
	if !c.havePrev {
		return sim.MixKey(h, 0), true
	}
	return mixCounts(sim.MixKey(h, 1), c.prev()), true
}

// read writes the read of track's low-water mark into next.
func (c *TracksMachine) read(track int, next *sim.OpInfo) {
	issue(next, c.base+int(c.low()[track])*c.m+track, machine.OpRead, nil)
}

// StartInc sets the position of track v from which this process last read
// 0, advancing the mark at once: the mark is not read again before the
// write's result arrives.
func (c *TracksMachine) StartInc(v int, next *sim.OpInfo) {
	low := c.low()
	pos := low[v]
	low[v] = pos + 1
	c.op = opInc
	op := machine.OpWriteOne
	if c.tas {
		op = machine.OpTestAndSet
	}
	issue(next, c.base+int(pos)*c.m+v, op, nil)
}

func (c *TracksMachine) StartDec(int, *sim.OpInfo) {
	panic("counter: TracksMachine is unbounded; Dec unsupported")
}

func (c *TracksMachine) StartScan(next *sim.OpInfo) {
	c.op, c.v, c.havePrev = opScan, 0, false
	c.read(0, next)
}

func (c *TracksMachine) Step(res machine.Value, next *sim.OpInfo) bool {
	if c.op != opScan {
		c.op = opIdle
		return false
	}
	if mustInt64(res) != 0 {
		c.low()[c.v]++
		c.read(c.v, next)
		return true
	}
	if c.v++; c.v < c.m {
		c.read(c.v, next)
		return true
	}
	// One collect complete: its counts are the marks. Two equal
	// consecutive collects form the snapshot.
	if c.havePrev && slices.Equal(c.low(), c.prev()) {
		copy(c.Counts(), c.low())
		c.op, c.v, c.havePrev = opIdle, 0, false
		return false
	}
	copy(c.prev(), c.low())
	c.havePrev, c.v = true, 0
	c.read(0, next)
	return true
}
