// Package swreg provides arrays of single-writer registers — the substrate
// the racing-counters consensus algorithms scan — over two different
// instruction sets:
//
//   - Direct: n locations supporting {read, write(x)}, one per process
//     (Table 1's {read, write(x)} row, SP = n).
//   - Buffered: ceil(n/l) l-buffers, each simulating the registers of up to
//     l processes through a history object (Lemmas 6.1/6.2, Theorem 6.3).
//
// Values carried through an Array are versioned internally so that a double
// collect over Collect results is a valid snapshot.
package swreg

import (
	"strconv"

	"repro/internal/history"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Array is one process's handle on an array of n single-writer registers,
// register i owned by process i.
type Array interface {
	// Write stores val in the calling process's own register.
	Write(val any)
	// Collect reads every register once, returning the current values
	// (nil where never written) and a version fingerprint: equal
	// fingerprints from consecutive collects certify a snapshot.
	Collect() ([]any, string)
}

// cell is the versioned payload a Direct array stores in each location.
type cell struct {
	seq int64
	val any
}

// Hash64 implements machine.Hashable so hashing register cells on the
// racing hot paths does not fall back to reflective formatting.
func (c cell) Hash64() uint64 {
	h := machine.Mix64(uint64(c.seq) ^ 0x73777267)
	return machine.Mix64(h ^ machine.HashValue(c.val))
}

// Direct is an Array over n read/write locations base..base+n-1.
type Direct struct {
	p    *sim.Proc
	base int
	seq  int64
}

// NewDirect returns process p's handle on the direct register array rooted
// at location base.
func NewDirect(p *sim.Proc, base int) *Direct {
	return &Direct{p: p, base: base}
}

// Write stores val in this process's location: one atomic step.
func (a *Direct) Write(val any) {
	a.seq++
	a.p.Apply(a.base+a.p.ID(), machine.OpWrite, cell{seq: a.seq, val: val})
}

// Collect reads the n locations in order: n atomic steps.
func (a *Direct) Collect() ([]any, string) {
	n := a.p.N()
	vals := make([]any, n)
	fp := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		v := a.p.Apply(a.base+i, machine.OpRead)
		if v == nil {
			fp = append(fp, "-,"...)
			continue
		}
		c := v.(cell)
		vals[i] = c.val
		fp = strconv.AppendInt(fp, int64(i), 10)
		fp = append(fp, '.')
		fp = strconv.AppendInt(fp, c.seq, 10)
		fp = append(fp, ',')
	}
	return vals, string(fp)
}

// Buffered is an Array over ceil(n/l) l-buffers: register i lives in the
// history object simulated by buffer floor(i/l), written by at most l
// distinct processes — exactly the fan-in Lemma 6.1 permits.
type Buffered struct {
	p      *sim.Proc
	base   int
	l      int
	groups []*history.Registers
}

// NewBuffered returns process p's handle on the buffered register array
// rooted at location base, over buffers of capacity l.
func NewBuffered(p *sim.Proc, base, l int) *Buffered {
	n := p.N()
	g := (n + l - 1) / l
	groups := make([]*history.Registers, g)
	for i := range groups {
		groups[i] = history.NewRegisters(p, base+i)
	}
	return &Buffered{p: p, base: base, l: l, groups: groups}
}

// Buffers returns how many l-buffers the array occupies: ceil(n/l).
func (a *Buffered) Buffers() int { return len(a.groups) }

// Write appends to this process's group history: one get-history plus one
// atomic buffer-write.
func (a *Buffered) Write(val any) {
	a.groups[a.p.ID()/a.l].Write(a.p.ID(), val)
}

// Collect reads each group's history once: ceil(n/l) atomic steps.
func (a *Buffered) Collect() ([]any, string) {
	n := a.p.N()
	vals := make([]any, 0, n)
	var fp []byte
	for gi, g := range a.groups {
		lo := gi * a.l
		hi := lo + a.l
		if hi > n {
			hi = n
		}
		slots := make([]int, 0, hi-lo)
		for s := lo; s < hi; s++ {
			slots = append(slots, s)
		}
		gv, gfp := g.ReadAll(slots)
		vals = append(vals, gv...)
		fp = append(append(fp, gfp...), '|')
	}
	return vals, string(fp)
}
