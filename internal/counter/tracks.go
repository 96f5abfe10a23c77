package counter

import (
	"slices"
	"strconv"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Tracks is the m-component monotone counter over unboundedly many binary
// locations of Section 9 (after Guerraoui and Ruppert): each component has
// an unbounded "track" of locations that are flipped from 0 to 1 in
// sequence. The count of a track is the length of its prefix of 1s.
//
// Increments by different processes may land on the same location and merge
// into one; that keeps counts monotone and never loses a solo process's
// progress, which is all the racing-counters argument needs (each process
// performs at most one increment between scans).
//
// Track v's position k lives at location base + k*m + v, so memory grows
// with the longest track; the measured footprint is the space consumption
// Table 1's first row declares unbounded.
type Tracks struct {
	p    *sim.Proc
	base int
	m    int
	tas  bool    // use test-and-set (ignoring the result) instead of write(1)
	low  []int64 // per-track low-water mark: first position not known to be 1
}

// NewTracks builds the counter view of process p with m tracks starting at
// location base, using write(1) to advance.
func NewTracks(p *sim.Proc, base, m int) *Tracks {
	return &Tracks{p: p, base: base, m: m, low: make([]int64, m)}
}

// NewTracksTAS is NewTracks but advances tracks with test-and-set, which
// simulates write(1) by ignoring the returned value (Theorem 9.3).
func NewTracksTAS(p *sim.Proc, base, m int) *Tracks {
	t := NewTracks(p, base, m)
	t.tas = true
	return t
}

// Components returns m.
func (c *Tracks) Components() int { return c.m }

func (c *Tracks) locOf(track int, pos int64) int {
	return c.base + int(pos)*c.m + track
}

// readBit reads one track position.
func (c *Tracks) readBit(track int, pos int64) bool {
	x := machine.MustInt(c.p.Apply(c.locOf(track, pos), machine.OpRead))
	return x.Sign() != 0
}

// setOne flips one track position to 1.
func (c *Tracks) setOne(track int, pos int64) {
	if c.tas {
		c.p.Apply(c.locOf(track, pos), machine.OpTestAndSet)
		return
	}
	c.p.Apply(c.locOf(track, pos), machine.OpWriteOne)
}

// advance moves the low-water mark of a track to the current first zero,
// reading forward from the cached mark, and returns the position of that
// zero (= the track's count).
func (c *Tracks) advance(track int) int64 {
	pos := c.low[track]
	for c.readBit(track, pos) {
		pos++
	}
	c.low[track] = pos
	return pos
}

// Inc writes 1 to the position of track v from which this process last read
// 0. If another process got there first the write merges (it lands on an
// already-set location); the count still never decreases and a solo process
// always makes progress.
func (c *Tracks) Inc(v int) {
	pos := c.low[v]
	c.setOne(v, pos)
	c.low[v] = pos + 1
}

// Scan double-collects the m track counts; counts are monotone so equal
// consecutive collects form a snapshot.
func (c *Tracks) Scan() []int64 {
	return doubleCollect(func() ([]int64, string) {
		counts := make([]int64, c.m)
		fp := make([]byte, 0, 4*c.m)
		for v := 0; v < c.m; v++ {
			counts[v] = c.advance(v)
			fp = append(strconv.AppendInt(fp, counts[v], 10), ',')
		}
		return counts, string(fp)
	})
}

// TracksMachine is the forkable twin of Tracks: the same instruction stream,
// with the per-track low-water marks (persistent) and the scan's progress
// (transient) in plain fields. Every track read branches on its result — a
// 1 moves along the track, a 0 moves to the next track — so no collect read
// is certain in advance; only a scan's very first read is.
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

// NewTracksMachine mirrors NewTracks (tas=false) and NewTracksTAS (tas=true)
// for m tracks starting at location base.
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
	// consecutive collects form the snapshot (doubleCollect).
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
