package counter

import (
	"fmt"
	"math/big"

	"repro/internal/machine"
	"repro/internal/primes"
	"repro/internal/sim"
)

// This file provides the explicit-state, forkable counterparts of the
// *sim.Proc-bound counters above. A Machine issues the exact same
// instruction stream as its Counter twin but holds every scrap of state —
// persistent (set-bit tallies) and transient (scan progress) — in a plain
// struct, so a process built on it can be snapshotted with a struct copy.
// The forkable protocol steppers in internal/consensus drive Machines; the
// cross-engine differential suite pins the instruction streams to the Body
// versions step for step.

// Machine is an m-component counter as a resumable, forkable state machine.
// An operation (Inc, Dec, or Scan) is begun with the corresponding Start
// call, which writes the operation's first instruction into next; Step
// consumes each instruction's result and either writes the next instruction
// into next (more=true) or completes the operation, leaving next untouched.
// At most one operation is in flight at a time. next is the caller's
// instruction slot (the racing stepper's poised instruction), written in
// place so no instruction is copied on the step path. A machine writes only
// its Loc, Op and Args: machines never issue a multiple assignment, so the
// slot's Multi must be, and stays, nil.
type Machine interface {
	// Components returns m.
	Components() int
	// ForkInto returns an independent copy, including mid-operation
	// progress — the counter-machine half of sim.Forker. It reuses prev's
	// heap state (scratch slices) when prev is a discarded machine of the
	// same concrete type; when prev is nil or of a foreign type it builds the
	// copy in fresh storage by the same statements.
	ForkInto(prev Machine) Machine
	// Key returns a canonical hash of all machine-local state. It is part
	// of the explorer's per-process dedup key, so any state that can affect
	// future instructions must enter it.
	Key() uint64
	// StartInc begins an increment of component v.
	StartInc(v int, next *sim.OpInfo)
	// StartDec begins a decrement of component v; it panics on machines for
	// unbounded counters, mirroring the Counter/BoundedCounter split.
	StartDec(v int, next *sim.OpInfo)
	// StartScan begins an atomic-looking scan of all components.
	StartScan(next *sim.OpInfo)
	// Step consumes the result of the previously issued instruction.
	Step(res machine.Value, next *sim.OpInfo) (more bool)
	// Counts returns the result of the last completed scan. Callers must
	// not retain it across operations or mutate it.
	Counts() []int64
}

// SymMachine is a Machine with a symmetry-reduced key: the machines over a
// fixed location span that behave the same under every process id. The
// tracks machine (an unbounded span) and the register-array machine (each
// process writes its own register) are plain Machines.
type SymMachine interface {
	Machine
	// SymKey is Key relative to a memory-location relabeling: every
	// location the machine's current and future operations may touch is
	// folded in through relabel, in a fixed role order. It is the
	// counter-machine component of the symmetry-reduced state key
	// (sim.SymKeyer); machines reference their location span and nothing
	// else, so folding the whole span satisfies the SymKeyer contract.
	SymKey(relabel func(loc int) int) uint64
}

func mixKey(h, x uint64) uint64 { return machine.Mix64(h ^ x) }

// issue writes the instruction op@loc with args into next (see Machine).
func issue(next *sim.OpInfo, loc int, op machine.Op, args []machine.Value) {
	next.Loc, next.Op, next.Args = loc, op, args
}

// appendInto copies src into dst's storage (growing if needed), preserving
// src's nil-ness — several machines distinguish nil from empty in their keys.
// It is the reuse half of the ForkInto implementations.
func appendInto[E any](dst, src []E) []E {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

// mixCounts folds a count slice (with a length prefix, so nil and empty
// distinguish from longer states) into a rolling key.
func mixCounts(h uint64, xs []int64) uint64 {
	h = mixKey(h, uint64(len(xs)))
	for _, x := range xs {
		h = mixKey(h, uint64(x))
	}
	return h
}

func mustInt64(res machine.Value) int64 {
	x, ok := machine.AsInt64(res)
	if !ok {
		panic(fmt.Sprintf("counter: non-numeric scan result %v (%T)", res, res))
	}
	return x
}

// opKind tracks which operation a machine is executing.
type opKind uint8

const (
	opIdle opKind = iota
	opInc
	opDec
	opScan
)

// --- single-location machines (add, multiply, set-bit) -----------------------

// flatMachine is the shared shape of the single-location counters: Inc/Dec
// are one instruction, Scan is one read (or fetch-style no-op update) plus a
// pure decode.
type flatMachine struct {
	loc    int
	m      int
	op     opKind
	counts []int64
}

func (f *flatMachine) Components() int { return f.m }

func (f *flatMachine) Counts() []int64 { return f.counts }

func (f *flatMachine) baseKey(tag uint64) uint64 {
	return mixKey(tag, uint64(f.op))
}

// symKey folds the machine's single location through the relabeling.
func (f *flatMachine) symKey(tag uint64, relabel func(int) int) uint64 {
	return mixKey(f.baseKey(tag), uint64(relabel(f.loc)))
}

// AddMachine is the forkable twin of Add: one {read, add} (or
// {fetch-and-add}) location, component v in the (v+1)'st base-3n digit.
type AddMachine struct {
	flatMachine
	base *big.Int
	// Start* instructions precomputed once: the memory never mutates
	// instruction arguments, so the argument slices are immutable and
	// shared across calls and forks, making the Start methods
	// allocation-free on the hot explore/solve paths.
	addOp, scanOp    machine.Op
	incArgs, decArgs [][]machine.Value
	scanArgs         []machine.Value
}

// NewAddMachine mirrors NewAdd/NewFetchAdd.
func NewAddMachine(loc, m, n int, fetch bool) *AddMachine {
	base := big.NewInt(int64(3 * n))
	pows := make([]*big.Int, m)
	pow := big.NewInt(1)
	for v := 0; v < m; v++ {
		pows[v] = new(big.Int).Set(pow)
		pow = new(big.Int).Mul(pow, base)
	}
	c := &AddMachine{flatMachine: flatMachine{loc: loc, m: m}, base: base,
		addOp: machine.OpAdd, scanOp: machine.OpRead}
	if fetch {
		c.addOp, c.scanOp = machine.OpFetchAndAdd, machine.OpFetchAndAdd
		c.scanArgs = []machine.Value{machine.Int(0)}
	}
	c.incArgs = make([][]machine.Value, m)
	c.decArgs = make([][]machine.Value, m)
	for v := 0; v < m; v++ {
		c.incArgs[v] = []machine.Value{pows[v]}
		c.decArgs[v] = []machine.Value{new(big.Int).Neg(pows[v])}
	}
	return c
}

func (c *AddMachine) ForkInto(prev Machine) Machine {
	p, ok := prev.(*AddMachine)
	if !ok {
		p = new(AddMachine)
	}
	*p = *c
	return p
}

func (c *AddMachine) Key() uint64 { return c.baseKey(0x61646430) }

func (c *AddMachine) SymKey(relabel func(int) int) uint64 { return c.symKey(0x61646430, relabel) }

func (c *AddMachine) StartInc(v int, next *sim.OpInfo) {
	c.op = opInc
	issue(next, c.loc, c.addOp, c.incArgs[v])
}

func (c *AddMachine) StartDec(v int, next *sim.OpInfo) {
	c.op = opDec
	issue(next, c.loc, c.addOp, c.decArgs[v])
}

func (c *AddMachine) StartScan(next *sim.OpInfo) {
	c.op = opScan
	issue(next, c.loc, c.scanOp, c.scanArgs)
}

func (c *AddMachine) Step(res machine.Value, _ *sim.OpInfo) bool {
	if c.op == opScan {
		c.counts = decodeDigits(res, c.base, c.m)
	}
	c.op = opIdle
	return false
}

// MulMachine is the forkable twin of Multiply: one {read, multiply} (or
// {fetch-and-multiply}) location, component v in the exponent of the
// (v+1)'st prime.
type MulMachine struct {
	flatMachine
	prms []*big.Int // shared, immutable
	// Precomputed immutable Start* instructions; see AddMachine.
	mulOp, scanOp machine.Op
	incArgs       [][]machine.Value
	scanArgs      []machine.Value
}

// NewMulMachine mirrors NewMultiply/NewFetchMultiply.
func NewMulMachine(loc, m int, fetch bool) *MulMachine {
	ps := primes.First(m)
	prms := make([]*big.Int, m)
	for i, q := range ps {
		prms[i] = big.NewInt(q)
	}
	c := &MulMachine{flatMachine: flatMachine{loc: loc, m: m}, prms: prms,
		mulOp: machine.OpMultiply, scanOp: machine.OpRead}
	if fetch {
		c.mulOp, c.scanOp = machine.OpFetchAndMultiply, machine.OpFetchAndMultiply
		c.scanArgs = []machine.Value{machine.Int(1)}
	}
	c.incArgs = make([][]machine.Value, m)
	for v := 0; v < m; v++ {
		c.incArgs[v] = []machine.Value{prms[v]}
	}
	return c
}

func (c *MulMachine) ForkInto(prev Machine) Machine {
	p, ok := prev.(*MulMachine)
	if !ok {
		p = new(MulMachine)
	}
	*p = *c
	return p
}

func (c *MulMachine) Key() uint64 { return c.baseKey(0x6d756c30) }

func (c *MulMachine) SymKey(relabel func(int) int) uint64 { return c.symKey(0x6d756c30, relabel) }

func (c *MulMachine) StartInc(v int, next *sim.OpInfo) {
	c.op = opInc
	issue(next, c.loc, c.mulOp, c.incArgs[v])
}

func (c *MulMachine) StartDec(int, *sim.OpInfo) {
	panic("counter: MulMachine is unbounded; Dec unsupported")
}

func (c *MulMachine) StartScan(next *sim.OpInfo) {
	c.op = opScan
	issue(next, c.loc, c.scanOp, c.scanArgs)
}

func (c *MulMachine) Step(res machine.Value, _ *sim.OpInfo) bool {
	if c.op == opScan {
		c.counts = decodeFactors(machine.MustInt(res), c.prms)
	}
	c.op = opIdle
	return false
}

// SetBitMachine is the forkable twin of SetBit: one {read, set-bit}
// location, per-(component, process) lanes in consecutive blocks. Its
// `mine` tallies are persistent process-local state and enter the key.
type SetBitMachine struct {
	flatMachine
	n, id int
	mine  []int64
}

// NewSetBitMachine mirrors NewSetBit for process id of n.
func NewSetBitMachine(loc, m, n, id int) *SetBitMachine {
	return &SetBitMachine{flatMachine: flatMachine{loc: loc, m: m}, n: n, id: id, mine: make([]int64, m)}
}

func (c *SetBitMachine) ForkInto(prev Machine) Machine {
	p, ok := prev.(*SetBitMachine)
	if !ok {
		p = new(SetBitMachine)
	}
	mine := p.mine
	*p = *c
	p.mine = append(mine[:0], c.mine...)
	return p
}

func (c *SetBitMachine) Key() uint64 {
	return mixCounts(c.baseKey(0x73657430), c.mine)
}

func (c *SetBitMachine) SymKey(relabel func(int) int) uint64 {
	// The set-bit lanes are per-(component, process): which bit a future
	// increment sets depends on the machine's id, so the id is genuine
	// behavioral state here — unlike in the exact per-pid key, where the
	// entry's position implies it. Folding it in keeps set-bit processes
	// unmerged across pids, which is the sound under-approximation (merging
	// them would equate memories whose lane blocks differ).
	h := mixCounts(c.baseKey(0x73657430), c.mine)
	h = mixKey(h, uint64(c.id))
	return mixKey(h, uint64(relabel(c.loc)))
}

func (c *SetBitMachine) StartInc(v int, next *sim.OpInfo) {
	b := c.mine[v]
	c.mine[v]++
	block := int64(c.m * c.n)
	idx := b*block + int64(v*c.n+c.id)
	c.op = opInc
	issue(next, c.loc, machine.OpSetBit, []machine.Value{machine.Word(idx)})
}

func (c *SetBitMachine) StartDec(int, *sim.OpInfo) {
	panic("counter: SetBitMachine is unbounded; Dec unsupported")
}

func (c *SetBitMachine) StartScan(next *sim.OpInfo) {
	c.op = opScan
	issue(next, c.loc, machine.OpRead, nil)
}

func (c *SetBitMachine) Step(res machine.Value, _ *sim.OpInfo) bool {
	if c.op == opScan {
		c.counts = decodeBitBlocks(res, c.m, c.n)
	}
	c.op = opIdle
	return false
}

// --- multi-location machines (increment, unary bits) -------------------------

// IncMachine is the forkable twin of Increment: m {read, increment} (or
// fetch-and-increment) locations, double-collect scans.
type IncMachine struct {
	base, m int
	fai     bool
	op      opKind
	idx     int
	cur     []int64
	prev    []int64
	counts  []int64
	// scratch is a retired collect buffer kept for reuse. Only buffers this
	// machine owns exclusively land here (a superseded prev, or a harvested
	// buffer in NewIncMachineInto) — never counts, whose backing array may be
	// shared with forks of this machine and must stay immutable.
	scratch []int64
}

// NewIncMachineInto mirrors NewIncrement/NewFetchIncrement over locations
// base..base+m-1. When spare is a retired *IncMachine it rebuilds in place:
// the struct is reinitialized and one of its exclusively owned collect
// buffers is kept as scratch, so the machine's first scan can skip its
// allocation. spare may be nil or of a foreign type; either way the result
// behaves exactly like a fresh machine.
func NewIncMachineInto(spare Machine, base, m int, fai bool) *IncMachine {
	p, ok := spare.(*IncMachine)
	if !ok {
		p = new(IncMachine)
	}
	scratch := p.scratch
	if scratch == nil {
		scratch = p.prev // exclusively owned, unlike counts
	}
	if scratch == nil {
		scratch = p.cur
	}
	*p = IncMachine{base: base, m: m, fai: fai, scratch: scratch}
	return p
}

// scanBuf returns a zeroed collect buffer of m entries, reusing scratch when
// it fits. Zeroing matters beyond hygiene: Key hashes the whole buffer, not
// just the filled prefix, so a recycled buffer must look exactly like a fresh
// make for mid-scan keys to stay deterministic.
func (c *IncMachine) scanBuf() []int64 {
	if cap(c.scratch) >= c.m {
		b := c.scratch[:c.m]
		c.scratch = nil
		clear(b)
		return b
	}
	return make([]int64, c.m)
}

func (c *IncMachine) Components() int { return c.m }

func (c *IncMachine) Counts() []int64 { return c.counts }

func (c *IncMachine) ForkInto(prev Machine) Machine {
	p, ok := prev.(*IncMachine)
	if !ok {
		p = new(IncMachine)
	}
	// Rotate p's exclusively owned buffers (cur, prev, scratch — never
	// counts) into whichever slots this fork needs filled; a leftover one
	// stays parked as scratch for the next scan.
	pool := [3][]int64{p.cur, p.prev, p.scratch}
	pi := 0
	*p = *c
	p.cur, pi = appendPooled(&pool, pi, c.cur)
	p.prev, pi = appendPooled(&pool, pi, c.prev)
	p.scratch = nil
	for ; pi < 3; pi++ {
		if pool[pi] != nil {
			p.scratch = pool[pi]
			break
		}
	}
	return p
}

// appendPooled copies src into the next recycled buffer with capacity (nil
// srcs stay nil), returning the copy and the advanced pool cursor.
func appendPooled(pool *[3][]int64, pi int, src []int64) ([]int64, int) {
	if src == nil {
		return nil, pi
	}
	for pi < 3 {
		b := pool[pi]
		pi++
		if b != nil {
			return append(b[:0], src...), pi
		}
	}
	return append([]int64(nil), src...), pi
}

func (c *IncMachine) Key() uint64 {
	h := mixKey(0x696e6330, uint64(c.op))
	h = mixKey(h, uint64(c.idx))
	h = mixCounts(h, c.cur)
	if c.prev == nil {
		return mixKey(h, 0)
	}
	return mixCounts(mixKey(h, 1), c.prev)
}

func (c *IncMachine) SymKey(relabel func(int) int) uint64 {
	h := c.Key()
	for v := 0; v < c.m; v++ {
		h = mixKey(h, uint64(relabel(c.base+v)))
	}
	return h
}

func (c *IncMachine) StartInc(v int, next *sim.OpInfo) {
	c.op = opInc
	op := machine.OpIncrement
	if c.fai {
		op = machine.OpFetchAndIncrement
	}
	issue(next, c.base+v, op, nil)
}

func (c *IncMachine) StartDec(int, *sim.OpInfo) {
	panic("counter: IncMachine is unbounded; Dec unsupported")
}

func (c *IncMachine) StartScan(next *sim.OpInfo) {
	c.op = opScan
	c.idx = 0
	c.cur = c.scanBuf()
	c.prev = nil
	issue(next, c.base, machine.OpRead, nil)
}

func (c *IncMachine) Step(res machine.Value, next *sim.OpInfo) bool {
	if c.op != opScan {
		c.op = opIdle
		return false
	}
	c.cur[c.idx] = mustInt64(res)
	c.idx++
	if c.idx < c.m {
		issue(next, c.base+c.idx, machine.OpRead, nil)
		return true
	}
	// One collect complete: the double-collect rule of doubleCollect.
	if c.prev != nil && equalCounts(c.cur, c.prev) {
		c.counts = c.cur
		c.scratch = c.prev // retired and exclusively owned: reuse next scan
		c.cur, c.prev = nil, nil
		c.op = opIdle
		return false
	}
	c.scratch = c.prev // superseded collect (nil on the first); reuse below
	c.prev = c.cur
	c.cur = c.scanBuf()
	c.idx = 0
	issue(next, c.base, machine.OpRead, nil)
	return true
}

func equalCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unary sub-phases.
const (
	uSearch uint8 = iota // scanning bits for the one to flip (inc/dec)
	uFlip                // the set/clear instruction is in flight
)

// UnaryMachine is the forkable twin of Unary: m components of width
// single-bit locations, write(1)/write(0) or test-and-set/reset.
type UnaryMachine struct {
	base, m, width int
	setOp, clearOp machine.Op
	confirming     int

	op   opKind
	sub  uint8
	v    int // component of the in-flight inc/dec
	j    int // bit cursor of the in-flight inc/dec
	idx  int // collect cursor of the in-flight scan
	bits []bool
	prev []bool
	same int
	cnt  []int64
}

// NewUnaryMachineInto mirrors NewUnary (tas=false) and NewUnaryTAS
// (tas=true). When spare is a retired *UnaryMachine it rebuilds in place,
// saving the struct allocation; spare may be nil or of a foreign type. The
// collect slices are dropped rather than reused — cnt's backing array may be
// shared with forks — so the result is field-for-field a fresh machine.
func NewUnaryMachineInto(spare Machine, base, m, width int, tas bool) *UnaryMachine {
	p, ok := spare.(*UnaryMachine)
	if !ok {
		p = new(UnaryMachine)
	}
	*p = UnaryMachine{base: base, m: m, width: width,
		setOp: machine.OpWriteOne, clearOp: machine.OpWriteZero, confirming: 2}
	if tas {
		p.setOp, p.clearOp = machine.OpTestAndSet, machine.OpReset
	}
	return p
}

func (c *UnaryMachine) Components() int { return c.m }

func (c *UnaryMachine) Counts() []int64 { return c.cnt }

func (c *UnaryMachine) ForkInto(prev Machine) Machine {
	p, ok := prev.(*UnaryMachine)
	if !ok {
		p = new(UnaryMachine)
	}
	bits, prv := p.bits, p.prev
	*p = *c
	p.bits = appendInto(bits, c.bits)
	p.prev = appendInto(prv, c.prev)
	return p
}

func (c *UnaryMachine) Key() uint64 {
	h := mixKey(0x756e7230, uint64(c.op))
	h = mixKey(h, uint64(c.sub)|uint64(c.v)<<8)
	h = mixKey(h, uint64(c.j)|uint64(c.idx)<<16|uint64(c.same)<<32)
	for _, bs := range [][]bool{c.bits, c.prev} {
		h = mixKey(h, uint64(len(bs)))
		for _, b := range bs {
			if b {
				h = mixKey(h, 3)
			} else {
				h = mixKey(h, 5)
			}
		}
	}
	return h
}

func (c *UnaryMachine) SymKey(relabel func(int) int) uint64 {
	h := c.Key()
	for i := 0; i < c.m*c.width; i++ {
		h = mixKey(h, uint64(relabel(c.base+i)))
	}
	return h
}

func (c *UnaryMachine) loc(v, j int) int { return c.base + v*c.width + j }

func (c *UnaryMachine) StartInc(v int, next *sim.OpInfo) {
	c.op, c.sub, c.v, c.j = opInc, uSearch, v, 0
	issue(next, c.loc(v, 0), machine.OpRead, nil)
}

func (c *UnaryMachine) StartDec(v int, next *sim.OpInfo) {
	c.op, c.sub, c.v, c.j = opDec, uSearch, v, c.width-1
	issue(next, c.loc(v, c.j), machine.OpRead, nil)
}

func (c *UnaryMachine) StartScan(next *sim.OpInfo) {
	c.op = opScan
	c.idx = 0
	c.bits = make([]bool, c.m*c.width)
	c.prev = nil
	c.same = 0
	issue(next, c.base, machine.OpRead, nil)
}

func (c *UnaryMachine) Step(res machine.Value, next *sim.OpInfo) bool {
	switch c.op {
	case opInc:
		if c.sub == uFlip {
			c.op = opIdle
			return false
		}
		if mustInt64(res) == 0 { // lowest clear bit found: set it
			c.sub = uFlip
			issue(next, c.loc(c.v, c.j), c.setOp, nil)
			return true
		}
		c.j++
		if c.j == c.width { // all observed set: transient contention; rescan
			c.j = 0
		}
		issue(next, c.loc(c.v, c.j), machine.OpRead, nil)
		return true
	case opDec:
		if c.sub == uFlip {
			c.op = opIdle
			return false
		}
		if mustInt64(res) != 0 { // highest set bit found: clear it
			c.sub = uFlip
			issue(next, c.loc(c.v, c.j), c.clearOp, nil)
			return true
		}
		c.j--
		if c.j < 0 { // all observed clear: transient; rescan
			c.j = c.width - 1
		}
		issue(next, c.loc(c.v, c.j), machine.OpRead, nil)
		return true
	case opScan:
		c.bits[c.idx] = mustInt64(res) != 0
		c.idx++
		if c.idx < len(c.bits) {
			issue(next, c.base+c.idx, machine.OpRead, nil)
			return true
		}
		// One collect complete: require `confirming` consecutive identical
		// collects, exactly as Unary.Scan does.
		if c.prev != nil && equalBits(c.bits, c.prev) {
			c.same++
		} else {
			c.same = 1
		}
		c.prev = c.bits
		if c.same >= c.confirming {
			c.cnt = make([]int64, c.m)
			for i, b := range c.prev {
				if b {
					c.cnt[i/c.width]++
				}
			}
			c.bits, c.prev = nil, nil
			c.op = opIdle
			return false
		}
		c.bits = make([]bool, c.m*c.width)
		c.idx = 0
		issue(next, c.base, machine.OpRead, nil)
		return true
	}
	c.op = opIdle
	return false
}

func equalBits(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
