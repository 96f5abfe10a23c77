package consensus

import (
	"bytes"
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/primes"
	"repro/internal/sim"
	"repro/internal/swreg"
)

// This file holds every protocol of the package a second time, as coroutine
// code over a *sim.Proc (a sim.Body): the paper's algorithms written line
// for line, with the control flow the steppers unroll into explicit state.
// They are the oracles the differential tests pin the steppers to:
// TestSteppersMatchBodies, TestQSCStepperMatchesBody and TestBodyRowsGolden
// run a protocol's Body and its steppers under one seeded schedule and
// require identical instruction traces, decisions and final memory.

// bodyOf returns the Body oracle of a protocol this package builds, chosen
// by its name and parameterized by its fields; a Body-only protocol is its
// own oracle.
func bodyOf(pr *Protocol) sim.Body {
	if pr.Body != nil {
		return pr.Body
	}
	n, m := pr.N, pr.Values
	switch pr.Name {
	case "compare-and-swap":
		return casBody
	case "intro-faa2-tas":
		return introFAA2TASBody
	case "intro-dec-mul":
		return introDecMulBody(n)
	case "max-registers":
		y := primes.Next(int64(n))
		return func(p *sim.Proc) int { return maxRegBody(p, y) }
	case "multiply":
		return func(p *sim.Proc) int { return RaceUnbounded(NewMultiply(p, 0, m), n, p.Input()) }
	case "fetch-and-multiply":
		return func(p *sim.Proc) int { return RaceUnbounded(NewFetchMultiply(p, 0, m), n, p.Input()) }
	case "add":
		return func(p *sim.Proc) int { return RaceBounded(NewAdd(p, 0, m, n), n, p.Input()) }
	case "fetch-and-add":
		return func(p *sim.Proc) int { return RaceBounded(NewFetchAdd(p, 0, m, n), n, p.Input()) }
	case "set-bit":
		return func(p *sim.Proc) int { return RaceUnbounded(NewSetBit(p, 0, m), n, p.Input()) }
	case "binary-bits":
		return func(p *sim.Proc) int { return binBitRound(n, false)(p, 0, p.Input()) }
	case "write-bits":
		return MultiValued(n, binBitCost(n), BitSlot{Values: n, SetOne: machine.OpWriteOne}, binBitRound(n, false))
	case "test-and-set+reset":
		return MultiValued(n, binBitCost(n), BitSlot{Values: n, SetOne: machine.OpTestAndSet}, binBitRound(n, true))
	case "increment-binary":
		return func(p *sim.Proc) int { return incrementRound(n, false)(p, 0, p.Input()) }
	case "increment":
		return MultiValued(n, 2, MultiSlot{}, incrementRound(n, false))
	case "fetch-and-increment":
		return MultiValued(n, 2, MultiSlot{}, incrementRound(n, true))
	case "write(1)-tracks":
		return func(p *sim.Proc) int { return RaceUnbounded(NewTracks(p, 0, n), n, p.Input()) }
	case "test-and-set-tracks":
		return func(p *sim.Proc) int { return RaceUnbounded(NewTracksTAS(p, 0, n), n, p.Input()) }
	case "write(1)-tracks-sticky":
		return func(p *sim.Proc) int { return RaceUnboundedSticky(NewTracks(p, 0, n), n, p.Input()) }
	case "test-and-set-tracks-sticky":
		return func(p *sim.Proc) int { return RaceUnboundedSticky(NewTracksTAS(p, 0, n), n, p.Input()) }
	case "registers":
		return func(p *sim.Proc) int {
			return RaceUnbounded(NewRegisters(swreg.NewDirect(p, 0), m), n, p.Input())
		}
	case "l-buffers", "l-buffers+multi-assignment":
		l := pr.Set.BufferLen()
		return func(p *sim.Proc) int {
			return RaceUnbounded(NewRegisters(swreg.NewBuffered(p, 0, l), m), n, p.Input())
		}
	case "swap":
		return swapBody
	}
	var t, rounds int
	if _, err := fmt.Sscanf(pr.Name, "qsc-threshold(n=%d,t=%d,r=%d)", &n, &t, &rounds); err == nil {
		return qscBody(n, t, rounds)
	}
	if rest, ok := strings.CutPrefix(pr.Name, "qsc-byzantine-"); ok {
		i := strings.IndexByte(rest, '(')
		for _, adv := range []QSCAdversary{QSCByzMalformed, QSCByzOutOfTurn, QSCByzFork} {
			if i < 0 || rest[:i] != adv.String() {
				continue
			}
			if _, err := fmt.Sscanf(rest[i:], "(n=%d,t=%d,r=%d)", &n, &t, &rounds); err == nil {
				return byzBody(n, t, rounds, adv)
			}
		}
	}
	panic(fmt.Sprintf("consensus: no Body oracle for protocol %q", pr.Name))
}

// --- compare-and-swap and the introduction protocols -------------------------

// casBody is CAS's per-process code: install the input offset by one, or
// learn the winner from the instruction's return value.
func casBody(p *sim.Proc) int {
	old := machine.MustInt(p.Apply(0, machine.OpCompareAndSwap,
		machine.Int(0), machine.Int(int64(p.Input()+1))))
	if old.Sign() == 0 {
		return p.Input()
	}
	return int(old.Int64()) - 1
}

// introFAA2TASBody is IntroFAA2TAS's per-process code.
func introFAA2TASBody(p *sim.Proc) int {
	if p.Input() == 0 {
		old := machine.MustInt(p.Apply(0, machine.OpFetchAndAdd, machine.Int(2)))
		if old.Bit(0) == 1 {
			return 1
		}
		return 0
	}
	old := machine.MustInt(p.Apply(0, machine.OpTestAndSet))
	if old.Sign() == 0 || old.Bit(0) == 1 {
		return 1
	}
	return 0
}

// introDecMulBody is IntroDecMul(n)'s per-process code.
func introDecMulBody(n int) sim.Body {
	return func(p *sim.Proc) int {
		if p.Input() == 0 {
			p.Apply(0, machine.OpDecrement)
		} else {
			p.Apply(0, machine.OpMultiply, machine.Int(int64(n)))
		}
		v := machine.MustInt(p.Apply(0, machine.OpRead))
		if v.Sign() > 0 {
			return 1
		}
		return 0
	}
}

// --- the racing-counters loops (Lemmas 3.1/3.2) ------------------------------

// RaceUnbounded is Lemma 3.1: m-valued consensus among n processes over an
// m-component unbounded counter. The process first promotes its input, then
// alternates scans with promotions of the current leader, deciding once the
// leader is n ahead of every other component.
func RaceUnbounded(c Counter, n, input int) int {
	c.Inc(input)
	for {
		s := c.Scan()
		if v, ok := winner(s, int64(n)); ok {
			return v
		}
		c.Inc(leader(s))
	}
}

// RaceUnboundedSticky is RaceUnbounded with a different — equally legitimate
// under Lemma 3.1's "breaking ties arbitrarily" — tie-break: among maximal
// components the process prefers the one it last promoted. The choice does
// not affect safety or obstruction-freedom, but it admits simple schedules
// in which distinct processes promote distinct components forever, which the
// Lemma 9.1 flood demonstration exploits to keep the write(1)-track
// protocols growing without a decision.
func RaceUnboundedSticky(c Counter, n, input int) int {
	last := input
	c.Inc(input)
	for {
		s := c.Scan()
		if v, ok := winner(s, int64(n)); ok {
			return v
		}
		v := leader(s)
		if s[last] == s[v] {
			v = last
		}
		last = v
		c.Inc(v)
	}
}

// RaceBounded is Lemma 3.2: the same race over a bounded counter whose
// components must stay within {0,...,3n-1}. To promote v when some other
// component already holds a count of at least n, the process decrements that
// component instead of incrementing v; the lemma shows counts then never
// leave the legal range.
func RaceBounded(c BoundedCounter, n, input int) int {
	promote := func(v int, s []int64) {
		u := -1
		for w := range s {
			if w == v {
				continue
			}
			if u < 0 || s[w] > s[u] {
				u = w
			}
		}
		if u >= 0 && s[u] >= int64(n) {
			c.Dec(u)
		} else {
			c.Inc(v)
		}
	}
	promote(input, c.Scan())
	for {
		s := c.Scan()
		if v, ok := winner(s, int64(n)); ok {
			return v
		}
		promote(leader(s), s)
	}
}

// --- the Lemma 5.2 multi-valued lift -----------------------------------------

// BinaryRound runs one binary consensus instance among n processes over
// locations base..base+c-1, returning the agreed bit given this process's
// proposed bit.
type BinaryRound func(p *sim.Proc, base int, bit int) int

// ValueSlot is the codec for one designated value location (or location
// run): processes record candidate values in it and later adopt one.
type ValueSlot interface {
	// Size returns how many memory locations one slot occupies.
	Size() int
	// Record stores val in the slot rooted at base.
	Record(p *sim.Proc, base int, val int)
	// Recover returns any value previously recorded in the slot rooted at
	// base; ok is false when none is visible yet.
	Recover(p *sim.Proc, base int) (val int, ok bool)
}

// MultiSlot is the plain codec: one {read, write(x)} location per slot.
type MultiSlot struct{}

// Size returns 1.
func (MultiSlot) Size() int { return 1 }

// Record writes the value into the single location, offset by one so a
// recorded 0 is distinguishable from the initial contents.
func (MultiSlot) Record(p *sim.Proc, base int, val int) {
	p.Apply(base, machine.OpWrite, machine.Int(int64(val)+1))
}

// Recover reads the single location.
func (MultiSlot) Recover(p *sim.Proc, base int) (int, bool) {
	v := p.Apply(base, machine.OpRead)
	if v == nil {
		return 0, false
	}
	x := machine.MustInt(v)
	if x.Sign() == 0 {
		return 0, false
	}
	return int(x.Int64()) - 1, true
}

// BitSlot is Theorem 9.4's codec: a run of `values` single-bit locations;
// recording value x sets bit x, recovering scans for any set bit. setOne is
// write(1) or test-and-set depending on the instruction set.
type BitSlot struct {
	Values int
	SetOne machine.Op
}

// Size returns the number of bit locations per slot.
func (s BitSlot) Size() int { return s.Values }

// Record sets the bit location indexed by the value.
func (s BitSlot) Record(p *sim.Proc, base int, val int) {
	p.Apply(base+val, s.SetOne)
}

// Recover scans the bit locations for a set bit.
func (s BitSlot) Recover(p *sim.Proc, base int) (int, bool) {
	for v := 0; v < s.Values; v++ {
		x := machine.MustInt(p.Apply(base+v, machine.OpRead))
		if x.Sign() != 0 {
			return v, true
		}
	}
	return 0, false
}

// MultiValued builds the n-valued consensus body from a binary consensus
// round and a slot codec (Lemma 5.2). Values are agreed most-significant-bit
// first; after the final round the process's candidate value equals the
// agreed bit string, which is some process's input by the round invariant.
func MultiValued(m, c int, slot ValueSlot, round BinaryRound) sim.Body {
	k := bitsFor(m)
	return func(p *sim.Proc) int {
		v := p.Input()
		for i := 0; i < k; i++ {
			base := roundBase(i, c, slot.Size())
			bit := (v >> (k - 1 - i)) & 1
			last := i == k-1
			binBase := base
			if !last {
				// Record the candidate value in the designated location for
				// the proposed bit before entering the round's binary
				// consensus.
				slot.Record(p, base+bit*slot.Size(), v)
				binBase = base + 2*slot.Size()
			}
			agreed := round(p, binBase, bit)
			if agreed != bit {
				if last {
					// No designated locations in the final round: all
					// candidates agree on the first k-1 bits, so flipping
					// the last bit reconstructs the winning input.
					v = (v &^ 1) | agreed
				} else {
					w, ok := slot.Recover(p, base+agreed*slot.Size())
					if !ok {
						// The agreed bit was proposed by some process, which
						// recorded its value first: it must be visible.
						panic(fmt.Sprintf("consensus: round %d agreed bit %d has no recorded value", i, agreed))
					}
					v = w
				}
			}
		}
		return v
	}
}

// --- the per-round binary consensus of Theorems 9.4 and 5.3 ------------------

// binBitRound returns the per-round binary consensus body over two unary
// bounded components (2 * 3n bit locations).
func binBitRound(n int, tas bool) BinaryRound {
	return func(p *sim.Proc, base int, bit int) int {
		var c BoundedCounter
		if tas {
			c = NewUnaryTAS(p, base, 2, unaryWidth(n))
		} else {
			c = NewUnary(p, base, 2, unaryWidth(n))
		}
		return RaceBounded(c, n, bit)
	}
}

// incrementRound returns the per-round binary consensus body over two
// increment locations.
func incrementRound(n int, fai bool) BinaryRound {
	return func(p *sim.Proc, base int, bit int) int {
		var c Counter
		if fai {
			c = NewFetchIncrement(p, base, 2)
		} else {
			c = NewIncrement(p, base, 2)
		}
		return RaceUnbounded(c, n, bit)
	}
}

// --- two max-registers (Theorem 4.2) -----------------------------------------

// scanMax double-collects the two max-registers. Max-register values never
// decrease, so two identical consecutive collects form a snapshot.
func scanMax(p *sim.Proc) (m1, m2 *big.Int) {
	a := machine.MustInt(p.Apply(0, machine.OpReadMax))
	b := machine.MustInt(p.Apply(1, machine.OpReadMax))
	for {
		a2 := machine.MustInt(p.Apply(0, machine.OpReadMax))
		b2 := machine.MustInt(p.Apply(1, machine.OpReadMax))
		if a2.Cmp(a) == 0 && b2.Cmp(b) == 0 {
			return a2, b2
		}
		a, b = a2, b2
	}
}

func maxRegBody(p *sim.Proc, y int64) int {
	// Announce the input as (0, x') in m1.
	p.Apply(0, machine.OpWriteMax,
		EncodePair(MaxRegPair{R: 0, X: p.Input()}, y))
	for {
		v1, v2 := scanMax(p)
		p1, p2 := DecodePair(v1, y), DecodePair(v2, y)
		switch {
		case p1.R == p2.R+1 && p1.X == p2.X:
			// m1 = (r+1, x), m2 = (r, x): decide x.
			return p1.X
		case v1.Cmp(v2) == 0:
			// Both registers agree on (r, x): promote x to round r+1 in m1.
			p.Apply(0, machine.OpWriteMax,
				EncodePair(MaxRegPair{R: p1.R + 1, X: p1.X}, y))
		default:
			// Catch m2 up to m1's value from the scan.
			p.Apply(1, machine.OpWriteMax, v1)
		}
	}
}

// --- Algorithm 1 (Theorem 8.8) ----------------------------------------------

// swapScan double-collects the n-1 locations, returning each location's lap
// vector (zero vector where never written). The result is read-only: every
// never-written location shares one zero vector. The two latest collects
// and their fingerprints take turns in two buffers each.
func swapScan(p *sim.Proc, k int) [][]int64 {
	var zero []int64
	collect := func(out [][]int64, fp []byte) ([][]int64, []byte) {
		out = out[:0]
		for j := 0; j < k; j++ {
			v := p.Apply(j, machine.OpRead)
			if v == nil {
				if zero == nil {
					zero = make([]int64, p.N())
				}
				out = append(out, zero)
				fp = append(fp, "-,"...)
				continue
			}
			c := v.(swapCell)
			out = append(out, c.laps)
			fp = strconv.AppendInt(fp, int64(c.pid), 10)
			fp = append(fp, '.')
			fp = strconv.AppendInt(fp, c.seq, 10)
			fp = append(fp, ',')
		}
		return out, fp
	}
	var outs [2][][]int64
	var fps [2][]byte
	outs[0], fps[0] = collect(nil, nil)
	for i := 1; ; i ^= 1 {
		outs[i], fps[i] = collect(outs[i], fps[i][:0])
		if bytes.Equal(fps[i], fps[i^1]) {
			return outs[i]
		}
	}
}

// swapBody is Algorithm 1, line for line.
func swapBody(p *sim.Proc) int {
	n := p.N()
	k := n - 1
	ell := make([]int64, n) // this process's view of each value's lap
	s := make([]int64, n)   // lap vector from the last swap's return (line 13)
	ell[p.Input()] = 1      // line 1
	var seq int64
	for { // line 2
		a := swapScan(p, k)      // line 3
		for v := 0; v < n; v++ { // lines 4-5
			if s[v] > ell[v] {
				ell[v] = s[v]
			}
			for j := 0; j < k; j++ {
				if a[j][v] > ell[v] {
					ell[v] = a[j][v]
				}
			}
		}
		// lines 6-7: leading lap and smallest value on it.
		vStar := 0
		for v := 1; v < n; v++ {
			if ell[v] > ell[vStar] {
				vStar = v
			}
		}
		allEqual := true // line 8
		for j := 0; j < k; j++ {
			if !eqVec(a[j], ell) {
				allEqual = false
				break
			}
		}
		if allEqual {
			ahead := true // line 9
			for v := 0; v < n; v++ {
				if v != vStar && ell[vStar] < ell[v]+2 {
					ahead = false
					break
				}
			}
			if ahead {
				return vStar // line 10
			}
			ell[vStar]++ // line 11
		}
		// line 12: first location whose content differs from our view.
		j := 0
		for ; j < k; j++ {
			if !eqVec(a[j], ell) {
				break
			}
		}
		if j == k {
			j = 0
		}
		// line 13: swap our view in; remember what we displaced.
		seq++
		laps := make([]int64, n)
		copy(laps, ell)
		old := p.Apply(j, machine.OpSwap,
			swapCell{pid: p.ID(), seq: seq, laps: laps})
		if old == nil {
			// The location had never been written: the displaced vector is
			// all zeros. Allocate fresh — payloads already published are
			// immutable by convention and may be aliased by other
			// processes' collects.
			s = make([]int64, n)
		} else {
			s = old.(swapCell).laps
		}
	}
}

// --- MP.QSC and its Byzantine variants ---------------------------------------

// qscBody is the coroutine form of qscStepper, step for step: the same core
// drives it, so the instruction streams are identical under one schedule.
func qscBody(n, t, rounds int) sim.Body {
	return func(p *sim.Proc) int {
		c := newQSCCore(n, t, rounds, p.ID(), p.Input())
		for !c.done {
			if c.dest < c.n {
				p.Send(c.dest, c.box[0])
				c.resumeSend()
				continue
			}
			if w, ok := p.Recv(c.id).(*qscWire); ok {
				c.fold(w.msg)
				c.advance()
			}
		}
		return c.decision
	}
}

// byzBody is QSCWithByzantine(n, t, rounds, adv)'s per-process code: the
// honest protocol, except that the last process plays the adversary's send
// script and then parks, discarding everything it receives.
func byzBody(n, t, rounds int, adv QSCAdversary) sim.Body {
	byz := n - 1
	sends := byzScript(n, rounds, adv)
	honest := qscBody(n, t, rounds)
	return func(p *sim.Proc) int {
		if p.ID() != byz {
			return honest(p)
		}
		for _, s := range sends {
			p.Send(s.Loc, s.Args[0])
		}
		for {
			p.Recv(byz) // park: discard everything, never decide
		}
	}
}
