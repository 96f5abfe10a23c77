package consensus

import (
	"bytes"
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

// Hash64 implements machine.Hashable so the memory fingerprint and the
// result-replay history hash do not fall back to reflective formatting on
// the swap hot path. All three fields enter the hash: the explorer's dedup
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
