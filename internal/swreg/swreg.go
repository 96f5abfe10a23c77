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

// Machine is the forkable, instruction-level form of one process's Direct
// or Buffered handle, for register arrays whose values are []int64 vectors
// (the racing counters' contribution vectors). It issues the handle's exact
// instruction stream and writes identical payloads; the caller drives it
// one instruction at a time. A write is begun with StartWrite and fed
// through WriteStep; a collect is the fixed read sequence ReadOp(0..Reads-1),
// each result decoded by Absorb. Every instruction is written into the
// caller's slot next, Loc, Op and Args only, as counter.Machine does. A
// collect's version vector — each register's sequence number, 0 when never
// written — is what the handle's fingerprint encodes, so equal vectors from
// consecutive collects certify a snapshot exactly when equal fingerprints
// do.
//
// Machine is a value type: copying it forks it.
type Machine struct {
	base, n, id int
	l           int // buffer capacity; 0 for a Direct array
	seq         int64
	// pending is the vector a Buffered write is publishing while its
	// get-history read is in flight (nil otherwise). It was allocated for
	// this write and is never mutated, so forks share it.
	pending []int64
}

// NewDirectMachine is process id's Direct array of n registers at base.
func NewDirectMachine(base, n, id int) Machine {
	return Machine{base: base, n: n, id: id}
}

// NewBufferedMachine is process id's Buffered array of n registers over
// l-buffers at base.
func NewBufferedMachine(base, n, l, id int) Machine {
	return Machine{base: base, n: n, id: id, l: l}
}

// Key hashes the state that shapes future payloads: the sequence number
// and whether a Buffered write is between its two instructions (the vector
// it publishes is the caller's state).
func (a *Machine) Key() uint64 {
	h := machine.Mix64(uint64(a.seq) ^ 0x7377726d)
	if a.pending != nil {
		h = machine.Mix64(h ^ 1)
	}
	return h
}

// Registers returns n, the length of a collect's version vector.
func (a *Machine) Registers() int { return a.n }

// Reads returns how many instructions one collect issues: n for Direct,
// ceil(n/l) for Buffered.
func (a *Machine) Reads() int {
	if a.l == 0 {
		return a.n
	}
	return (a.n + a.l - 1) / a.l
}

// ReadOp writes the collect's j'th instruction into next.
func (a *Machine) ReadOp(j int, next *sim.OpInfo) {
	op := machine.OpRead
	if a.l != 0 {
		op = machine.OpBufferRead
	}
	next.Loc, next.Op, next.Args = a.base+j, op, nil
}

// Absorb decodes the result of ReadOp(j): it sets the version of every
// register the read covers in vers (length n) and adds each written
// register's vector into sums.
func (a *Machine) Absorb(j int, res machine.Value, vers, sums []int64) {
	if a.l == 0 {
		if res == nil {
			vers[j] = 0
			return
		}
		c := res.(cell)
		vers[j] = c.seq
		addVec(sums, c.val)
		return
	}
	lo := j * a.l
	hi := min(lo+a.l, a.n)
	history.NewestSlots(res.([]machine.Value), lo, vers[lo:hi], func(_ int, v any) { addVec(sums, v) })
}

func addVec(sums []int64, v any) {
	for i, x := range v.([]int64) {
		sums[i] += x
	}
}

// StartWrite begins writing val, which the caller must not mutate
// afterwards, to the process's own register and writes the first
// instruction into next: the write itself (Direct) or the append's
// get-history read (Buffered).
func (a *Machine) StartWrite(val []int64, next *sim.OpInfo) {
	if a.l == 0 {
		a.seq++
		next.Loc, next.Op = a.base+a.id, machine.OpWrite
		next.Args = []machine.Value{cell{seq: a.seq, val: val}}
		return
	}
	a.pending = val
	next.Loc, next.Op, next.Args = a.base+a.id/a.l, machine.OpBufferRead, nil
}

// WriteStep consumes the result of the write's in-flight instruction and
// writes the next one into next (more=true), or completes the write and
// leaves next untouched.
func (a *Machine) WriteStep(res machine.Value, next *sim.OpInfo) (more bool) {
	if a.pending == nil {
		return false
	}
	a.seq++
	val := a.pending
	a.pending = nil
	next.Loc, next.Op = a.base+a.id/a.l, machine.OpBufferWrite
	next.Args = history.AppendSlotArgs(res.([]machine.Value), a.id, a.seq, a.id, val)
	return true
}
