package consensus

import (
	"math/big"
	"strconv"

	"repro/internal/machine"
	"repro/internal/primes"
	"repro/internal/sim"
	"repro/internal/swreg"
)

// This file holds the counter objects of Section 3 as coroutine code over a
// *sim.Proc, one operation per call: the oracles the counter machines of
// internal/counter are pinned to. The racing loops and Lemma 5.2 lifts of
// bodies_test.go run over them, and TestSteppersMatchBodies checks that each
// protocol's steppers, driving the machines, issue their exact instruction
// stream. Their scans decode on big.Int arithmetic alone, independently of
// the machines' word-sized decoders.

// Counter is an m-component counter supporting increments and atomic-looking
// scans (Section 3's unbounded counter object).
type Counter interface {
	// Components returns m, the number of components.
	Components() int
	// Inc increments component v by one.
	Inc(v int)
	// Scan returns the counts of all components, as of a single
	// linearization point.
	Scan() []int64
}

// BoundedCounter additionally supports decrements, enabling the bounded
// counter object of Lemma 3.2 whose components stay within {0,...,3n-1}.
type BoundedCounter interface {
	Counter
	// Dec decrements component v by one.
	Dec(v int)
}

// doubleCollect repeatedly invokes collect until two consecutive collects
// return the same fingerprint, and returns the last counts. When the
// underlying values are monotone (or versioned), two identical consecutive
// collects form a linearizable snapshot — the double-collect argument of
// Afek et al. used throughout the paper.
func doubleCollect(collect func() ([]int64, string)) []int64 {
	_, fp := collect()
	for {
		cur, fp2 := collect()
		if fp2 == fp {
			return cur
		}
		fp = fp2
	}
}

// AddCounter is the base-3n digit m-component bounded counter of Theorem 3.3,
// built from a single location supporting read and add (or fetch-and-add
// alone). The value stored is interpreted as a number written in base 3n
// whose (v+1)'st least significant digit is the count of component v.
// Counts must stay in {0,...,3n-1}; the racing algorithm of Lemma 3.2
// guarantees that.
type AddCounter struct {
	p     *sim.Proc
	loc   int
	m     int
	base  *big.Int
	pows  []*big.Int
	fetch bool // use fetch-and-add for both updates and reads
}

// NewAdd builds the counter view of process p over location loc with m
// components, digit base 3n, using {read, add}.
func NewAdd(p *sim.Proc, loc, m, n int) *AddCounter {
	return newAdd(p, loc, m, n, false)
}

// NewFetchAdd builds the counter using only {fetch-and-add}: updates add a
// power of the base, reads add 0 and use the returned previous value.
func NewFetchAdd(p *sim.Proc, loc, m, n int) *AddCounter {
	return newAdd(p, loc, m, n, true)
}

func newAdd(p *sim.Proc, loc, m, n int, fetch bool) *AddCounter {
	base := big.NewInt(int64(3 * n))
	pows := make([]*big.Int, m)
	pow := big.NewInt(1)
	for v := 0; v < m; v++ {
		pows[v] = new(big.Int).Set(pow)
		pow = new(big.Int).Mul(pow, base)
	}
	return &AddCounter{p: p, loc: loc, m: m, base: base, pows: pows, fetch: fetch}
}

// Components returns m.
func (c *AddCounter) Components() int { return c.m }

// Bound returns the exclusive upper bound 3n on any component's count.
func (c *AddCounter) Bound() int64 { return c.base.Int64() }

// Inc adds (3n)^v: one atomic step.
func (c *AddCounter) Inc(v int) { c.update(c.pows[v]) }

// Dec subtracts (3n)^v: one atomic step.
func (c *AddCounter) Dec(v int) { c.update(new(big.Int).Neg(c.pows[v])) }

func (c *AddCounter) update(delta *big.Int) {
	op := machine.OpAdd
	if c.fetch {
		op = machine.OpFetchAndAdd
	}
	c.p.Apply(c.loc, op, delta)
}

// Scan reads the location once and decomposes it into base-3n digits.
func (c *AddCounter) Scan() []int64 {
	var x machine.Value
	if c.fetch {
		x = c.p.Apply(c.loc, machine.OpFetchAndAdd, machine.Int(0))
	} else {
		x = c.p.Apply(c.loc, machine.OpRead)
	}
	return decodeDigits(make([]int64, c.m), x, c.base)
}

// MulCounter is the prime-exponent m-component unbounded counter of
// Theorem 3.3, built from a single location supporting read and multiply
// (or fetch-and-multiply alone). The location must be initialized to 1;
// component v's count is the exponent of the (v+1)'st prime in the prime
// decomposition of the stored number.
type MulCounter struct {
	p     *sim.Proc
	loc   int
	prms  []*big.Int
	fetch bool // use fetch-and-multiply for both updates and reads
}

// NewMultiply builds the counter view of process p over location loc with m
// components using {read, multiply}.
func NewMultiply(p *sim.Proc, loc, m int) *MulCounter {
	return newMultiply(p, loc, m, false)
}

// NewFetchMultiply builds the counter using only {fetch-and-multiply}:
// updates multiply by a prime, reads multiply by 1 and use the returned
// previous value (Table 1's single-instruction row).
func NewFetchMultiply(p *sim.Proc, loc, m int) *MulCounter {
	return newMultiply(p, loc, m, true)
}

func newMultiply(p *sim.Proc, loc, m int, fetch bool) *MulCounter {
	ps := primes.First(m)
	big_ := make([]*big.Int, m)
	for i, q := range ps {
		big_[i] = big.NewInt(q)
	}
	return &MulCounter{p: p, loc: loc, prms: big_, fetch: fetch}
}

// Components returns m.
func (c *MulCounter) Components() int { return len(c.prms) }

// Inc multiplies the location by the component's prime: one atomic step.
func (c *MulCounter) Inc(v int) {
	op := machine.OpMultiply
	if c.fetch {
		op = machine.OpFetchAndMultiply
	}
	c.p.Apply(c.loc, op, c.prms[v])
}

// Scan reads the location once and factors out each component's prime. The
// single read is the linearization point, so the scan is atomic by
// construction.
func (c *MulCounter) Scan() []int64 {
	var x machine.Value
	if c.fetch {
		// fetch-and-multiply(1) leaves the value unchanged and returns it.
		x = c.p.Apply(c.loc, machine.OpFetchAndMultiply, machine.Int(1))
	} else {
		x = c.p.Apply(c.loc, machine.OpRead)
	}
	return decodeFactors(make([]int64, len(c.prms)), x, c.prms)
}

// SetBitCounter is the bit-block m-component unbounded counter of Theorem 3.3,
// built from a single location supporting read and set-bit. The location is
// partitioned into consecutive blocks of m*n bits. When process i increments
// component v for the (b+1)'st time, it sets bit b*(m*n) + v*n + i. Every
// set bit therefore represents exactly one increment, and a single read
// recovers all counts.
type SetBitCounter struct {
	p    *sim.Proc
	loc  int
	m, n int
	mine []int64 // how many times this process has incremented each component
}

// NewSetBit builds the counter view of process p over location loc with m
// components shared by n processes.
func NewSetBit(p *sim.Proc, loc, m int) *SetBitCounter {
	return &SetBitCounter{p: p, loc: loc, m: m, n: p.N(), mine: make([]int64, m)}
}

// Components returns m.
func (c *SetBitCounter) Components() int { return c.m }

// Inc sets the next bit in this process's lane of component v: one step.
func (c *SetBitCounter) Inc(v int) {
	b := c.mine[v]
	c.mine[v]++
	block := int64(c.m * c.n)
	idx := b*block + int64(v*c.n+c.p.ID())
	c.p.Apply(c.loc, machine.OpSetBit, machine.Int(idx))
}

// Scan reads the location once; the count of component v is the number of
// set bits lying in component v's lanes across all blocks.
func (c *SetBitCounter) Scan() []int64 {
	return decodeBitBlocks(make([]int64, c.m), c.p.Apply(c.loc, machine.OpRead), c.n)
}

// IncCounter is the m-component unbounded counter over m locations
// supporting read and increment (Section 5, used by Theorem 5.3 with m=2).
// Component counts only grow, so a double collect yields an atomic scan.
type IncCounter struct {
	p    *sim.Proc
	base int // locations base..base+m-1
	m    int
	fai  bool // use fetch-and-increment (discarding the result)
}

// NewIncrement builds the counter view of process p over locations
// base..base+m-1 using the increment instruction.
func NewIncrement(p *sim.Proc, base, m int) *IncCounter {
	return &IncCounter{p: p, base: base, m: m}
}

// NewFetchIncrement is NewIncrement but updates with fetch-and-increment,
// matching Table 1's {read, write(x), fetch-and-increment} row.
func NewFetchIncrement(p *sim.Proc, base, m int) *IncCounter {
	return &IncCounter{p: p, base: base, m: m, fai: true}
}

// Components returns m.
func (c *IncCounter) Components() int { return c.m }

// Inc increments component v's location: one atomic step.
func (c *IncCounter) Inc(v int) {
	if c.fai {
		c.p.Apply(c.base+v, machine.OpFetchAndIncrement)
		return
	}
	c.p.Apply(c.base+v, machine.OpIncrement)
}

// Scan performs the double-collect snapshot over the m locations.
func (c *IncCounter) Scan() []int64 {
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

// UnaryCounter is an m-component bounded counter over single-bit locations, used by
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
type UnaryCounter struct {
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
func NewUnary(p *sim.Proc, base, m, width int) *UnaryCounter {
	return &UnaryCounter{p: p, base: base, m: m, width: width,
		setOp: machine.OpWriteOne, clearOp: machine.OpWriteZero, confirming: 2}
}

// NewUnaryTAS is NewUnary with test-and-set/reset as the bit operations
// (Table 1's {read, test-and-set, reset} row).
func NewUnaryTAS(p *sim.Proc, base, m, width int) *UnaryCounter {
	c := NewUnary(p, base, m, width)
	c.setOp = machine.OpTestAndSet
	c.clearOp = machine.OpReset
	return c
}

// Components returns m.
func (c *UnaryCounter) Components() int { return c.m }

func (c *UnaryCounter) loc(v, j int) int { return c.base + v*c.width + j }

func (c *UnaryCounter) bit(v, j int) bool {
	x := machine.MustInt(c.p.Apply(c.loc(v, j), machine.OpRead))
	return x.Sign() != 0
}

// Inc sets the lowest clear bit of component v (retrying from the bottom if
// a concurrent update raced it away).
func (c *UnaryCounter) Inc(v int) {
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
func (c *UnaryCounter) Dec(v int) {
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
func (c *UnaryCounter) Scan() []int64 {
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

// TracksCounter is the m-component monotone counter over unboundedly many binary
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
type TracksCounter struct {
	p    *sim.Proc
	base int
	m    int
	tas  bool    // use test-and-set (ignoring the result) instead of write(1)
	low  []int64 // per-track low-water mark: first position not known to be 1
}

// NewTracks builds the counter view of process p with m tracks starting at
// location base, using write(1) to advance.
func NewTracks(p *sim.Proc, base, m int) *TracksCounter {
	return &TracksCounter{p: p, base: base, m: m, low: make([]int64, m)}
}

// NewTracksTAS is NewTracks but advances tracks with test-and-set, which
// simulates write(1) by ignoring the returned value (Theorem 9.3).
func NewTracksTAS(p *sim.Proc, base, m int) *TracksCounter {
	t := NewTracks(p, base, m)
	t.tas = true
	return t
}

// Components returns m.
func (c *TracksCounter) Components() int { return c.m }

func (c *TracksCounter) locOf(track int, pos int64) int {
	return c.base + int(pos)*c.m + track
}

// readBit reads one track position.
func (c *TracksCounter) readBit(track int, pos int64) bool {
	x := machine.MustInt(c.p.Apply(c.locOf(track, pos), machine.OpRead))
	return x.Sign() != 0
}

// setOne flips one track position to 1.
func (c *TracksCounter) setOne(track int, pos int64) {
	if c.tas {
		c.p.Apply(c.locOf(track, pos), machine.OpTestAndSet)
		return
	}
	c.p.Apply(c.locOf(track, pos), machine.OpWriteOne)
}

// advance moves the low-water mark of a track to the current first zero,
// reading forward from the cached mark, and returns the position of that
// zero (= the track's count).
func (c *TracksCounter) advance(track int) int64 {
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
func (c *TracksCounter) Inc(v int) {
	pos := c.low[v]
	c.setOne(v, pos)
	c.low[v] = pos + 1
}

// Scan double-collects the m track counts; counts are monotone so equal
// consecutive collects form a snapshot.
func (c *TracksCounter) Scan() []int64 {
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

// RegCounter is an m-component unbounded counter over an array of n
// single-writer registers: each process records in its own register how
// many times it has incremented each component; a scan double-collects the
// array and sums component-wise. Used by the {read, write(x)} row (direct
// arrays) and by Theorem 6.3 (buffered arrays).
type RegCounter struct {
	arr  swreg.Array
	m    int
	mine []int64
}

// NewRegisters builds the counter view of one process over arr with m
// components.
func NewRegisters(arr swreg.Array, m int) *RegCounter {
	return &RegCounter{arr: arr, m: m, mine: make([]int64, m)}
}

// Components returns m.
func (c *RegCounter) Components() int { return c.m }

// Inc bumps this process's contribution to component v and publishes the
// whole contribution vector in its register.
func (c *RegCounter) Inc(v int) {
	c.mine[v]++
	out := make([]int64, c.m)
	copy(out, c.mine)
	c.arr.Write(out)
}

// Scan double-collects the register array and sums contributions.
func (c *RegCounter) Scan() []int64 {
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

// decodeDigits decomposes the numeric value x into its len(out) least
// significant base-`base` digits, written into out and returned.
func decodeDigits(out []int64, x machine.Value, base *big.Int) []int64 {
	xb := new(big.Int).Set(machine.MustInt(x))
	digit := new(big.Int)
	for v := range out {
		xb.QuoRem(xb, base, digit)
		out[v] = digit.Int64()
	}
	return out
}

// decodeFactors recovers per-component counts as prime multiplicities,
// written into out (one word per prime) and returned.
func decodeFactors(out []int64, x machine.Value, prms []*big.Int) []int64 {
	clear(out)
	xb := new(big.Int).Set(machine.MustInt(x))
	quo, rem := new(big.Int), new(big.Int)
	for v, q := range prms {
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

// decodeBitBlocks counts the set bits of the numeric value x per component
// lane into out (one word per component) and returns it.
func decodeBitBlocks(out []int64, x machine.Value, n int) []int64 {
	clear(out)
	block := len(out) * n
	xb := machine.MustInt(x)
	for j := 0; j < xb.BitLen(); j++ {
		if xb.Bit(j) == 1 {
			out[(j%block)/n]++
		}
	}
	return out
}
