package counter

import (
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
