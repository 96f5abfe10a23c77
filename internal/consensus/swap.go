package consensus

import (
	"bytes"
	"slices"
	"strconv"

	"repro/internal/machine"
	"repro/internal/sim"
)

// This file implements Algorithm 1 (Section 8, Theorem 8.8): an anonymous
// obstruction-free protocol solving n-consensus with n-1 locations
// supporting read and swap. Values 0..n-1 race to complete laps; a value
// two laps ahead of every other, with its lap vector present in all n-1
// locations, wins.

// swapCell is the payload stored in each location: the lap vector plus the
// writer's identity and a strictly increasing sequence number, which the
// paper notes are included solely so a double-collect scan is possible.
type swapCell struct {
	pid  int
	seq  int64
	laps []int64
}

// Hash64 implements machine.Hashable so the memory fingerprint does not
// fall back to reflective formatting on the swap hot path. All three fields enter the hash: the explorer's dedup
// table compares configurations across different schedules, where cells
// with equal (pid, seq) can carry different lap vectors.
func (c swapCell) Hash64() uint64 {
	h := machine.Mix64(uint64(c.pid) ^ 0x73776170)
	h = machine.Mix64(h ^ uint64(c.seq))
	for _, lap := range c.laps {
		h = machine.Mix64(h ^ uint64(lap))
	}
	return h
}

// Swap solves n-consensus using n-1 {read, swap(x)} locations.
func Swap(n int) *Protocol {
	if n < 2 {
		panic("consensus: Swap needs n >= 2")
	}
	return &Protocol{
		Name:      "swap",
		Set:       machine.SetReadSwap,
		N:         n,
		Values:    n,
		Locations: n - 1,
		Body:      swapBody,
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(id, in int) sim.Stepper { return newSwapStepper(n, id, in) })
		},
	}
}

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

func eqVec(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// swapVer is a swap cell's version, the (writer, sequence) pair the
// double collect compares; the zero value marks a never-written location
// (sequence numbers start at 1).
type swapVer struct {
	pid int
	seq int64
}

// swapStepper program counter values.
const (
	swCollect = iota // a read of the collect in progress is poised
	swSwap           // the line-13 swap is poised
)

// swapStepper is swapBody as an explicit forkable state machine, issuing
// the identical instruction stream and payloads. A scan is unrolled into
// the collect reads; two consecutive collects with equal version vectors
// end it, exactly as swapScan's fingerprints do.
//
// Published lap vectors are immutable: every swap publishes a fresh copy of
// ell, and s and the collected vectors alias memory payloads (or the shared
// all-zero vector), so they are only ever read. ForkInto copies the
// private vectors (ell, the version and collect buffers) and shares the
// rest.
type swapStepper struct {
	n, k, id int
	seq      int64
	pc       int
	j        int       // collect read in flight (swCollect); swap target (swSwap)
	ell      []int64   // this process's view of each value's lap (private)
	s        []int64   // lap vector the last swap displaced (read-only)
	zero     []int64   // the all-zero lap vector, shared with forks
	cur      [][]int64 // this collect's lap vectors, read through j
	curVer   []swapVer // and their versions
	prevVer  []swapVer // the previous collect's versions, while havePrev
	havePrev bool
	pending  sim.OpInfo
	done     bool
	decision int
}

func newSwapStepper(n, id, input int) *swapStepper {
	k := n - 1
	zero := make([]int64, n)
	st := &swapStepper{n: n, k: k, id: id, ell: make([]int64, n), s: zero, zero: zero,
		cur: make([][]int64, k), curVer: make([]swapVer, k), prevVer: make([]swapVer, k)}
	st.ell[input] = 1 // line 1
	st.startCollect()
	return st
}

func (st *swapStepper) startCollect() {
	st.pc, st.j = swCollect, 0
	st.read(0)
}

// read poises the collect read of location j, writing only Loc, Op and
// Args (pending.Multi is always nil).
func (st *swapStepper) read(j int) {
	st.pending.Loc, st.pending.Op, st.pending.Args = j, machine.OpRead, nil
}

func (st *swapStepper) Poise() *sim.OpInfo {
	if st.done {
		return nil
	}
	return &st.pending
}

func (st *swapStepper) Resume(res machine.Value) bool {
	if st.pc == swSwap {
		// line 13: remember the displaced vector, then rescan (line 3).
		st.s = st.zero
		if res != nil {
			st.s = res.(swapCell).laps
		}
		st.havePrev = false
		st.startCollect()
		return false
	}
	if res == nil {
		st.cur[st.j], st.curVer[st.j] = st.zero, swapVer{}
	} else {
		c := res.(swapCell)
		st.cur[st.j], st.curVer[st.j] = c.laps, swapVer{pid: c.pid, seq: c.seq}
	}
	if st.j++; st.j < st.k {
		st.read(st.j)
		return false
	}
	if !st.havePrev || !slices.Equal(st.curVer, st.prevVer) {
		copy(st.prevVer, st.curVer)
		st.havePrev = true
		st.startCollect()
		return false
	}
	return st.afterScan()
}

// afterScan is lines 4-13 over the completed scan st.cur: it decides, or
// poises the swap.
func (st *swapStepper) afterScan() bool {
	n, k, ell, a := st.n, st.k, st.ell, st.cur
	for v := 0; v < n; v++ { // lines 4-5
		if st.s[v] > ell[v] {
			ell[v] = st.s[v]
		}
		for j := 0; j < k; j++ {
			if a[j][v] > ell[v] {
				ell[v] = a[j][v]
			}
		}
	}
	vStar := 0 // lines 6-7
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
			st.done, st.decision = true, vStar // line 10
			return true
		}
		ell[vStar]++ // line 11
	}
	j := 0 // line 12
	for ; j < k; j++ {
		if !eqVec(a[j], ell) {
			break
		}
	}
	if j == k {
		j = 0
	}
	st.seq++ // line 13
	laps := make([]int64, n)
	copy(laps, ell)
	st.pc, st.j = swSwap, j
	st.pending.Loc, st.pending.Op = j, machine.OpSwap
	st.pending.Args = []machine.Value{swapCell{pid: st.id, seq: st.seq, laps: laps}}
	return false
}

func (st *swapStepper) Outcome() (bool, int, error) { return st.done, st.decision, nil }
func (st *swapStepper) Halt()                       {}

// ForkInto reuses prev's private buffers only. The vectors the collect
// buffer points at, and s, belong to memory payloads (or to the shared
// zero vector) and are shared, never written.
func (st *swapStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, ok := prev.(*swapStepper)
	if !ok {
		p = new(swapStepper)
	}
	ell, cur, curVer, prevVer := p.ell, p.cur, p.curVer, p.prevVer
	*p = *st
	p.ell = append(ell[:0], st.ell...)
	p.cur = append(cur[:0], st.cur...)
	p.curVer = append(curVer[:0], st.curVer...)
	p.prevVer = append(prevVer[:0], st.prevVer...)
	return p
}

// StateKey folds the state the future depends on. Mid-collect that is the
// scan so far (the vectors and versions read, the previous collect's
// versions) together with ell, s and seq; with the swap poised, the scan
// and s are dead — the swap's result replaces s and a fresh scan follows —
// and the swap target joins ell (the payload) and seq. There is no symmetric
// key: the swap stepper keeps the exact key under symmetry reduction.
func (st *swapStepper) StateKey(relabel func(int) int) (uint64, bool) {
	if relabel != nil {
		return 0, false
	}
	h := machine.Mix64(uint64(st.pc) ^ 0x73777073)
	h = mix2(h, uint64(st.j))
	h = mix2(h, uint64(st.seq))
	h = foldLaps(h, st.ell)
	if st.pc == swSwap {
		return h, true
	}
	h = foldLaps(h, st.s)
	for j := 0; j < st.j; j++ {
		h = foldLaps(h, st.cur[j])
		h = mix2(mix2(h, uint64(st.curVer[j].pid)), uint64(st.curVer[j].seq))
	}
	if !st.havePrev {
		return mix2(h, 0), true
	}
	h = mix2(h, 1)
	for _, v := range st.prevVer {
		h = mix2(mix2(h, uint64(v.pid)), uint64(v.seq))
	}
	return h, true
}

func foldLaps(h uint64, laps []int64) uint64 {
	for _, x := range laps {
		h = mix2(h, uint64(x))
	}
	return h
}
