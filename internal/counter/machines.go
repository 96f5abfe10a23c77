package counter

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"

	"repro/internal/machine"
	"repro/internal/primes"
	"repro/internal/sim"
)

// A Machine holds every scrap of state — persistent (set-bit tallies) and
// transient (scan progress) — in a plain struct and at most one buffer it
// owns, so a process built on it is snapshotted with a struct copy plus one
// buffer copy. The forkable protocol steppers in internal/consensus drive
// Machines; the differential tests there pin each machine's instruction
// stream to its coroutine oracle's step for step.

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
	// progress — the counter-machine half of sim.Forker. A machine keeps its
	// mutable words in one buffer it owns at fixed offsets, so the copy is a
	// struct copy plus one copy of that buffer, rebuilt in prev and prev's
	// buffer when prev is a discarded machine of the same concrete type and
	// in fresh storage by the same statements otherwise (sim.ForkTarget).
	ForkInto(prev Machine) Machine
	// Key is the machine's component of its stepper's key, under the
	// sim.StateKeyer contract: any state that can affect future
	// instructions must enter it, and a non-nil relabel asks for the
	// symmetric key, which folds the machine's location span through it.
	// The tracks machine (an unbounded span) and the register-array
	// machine (each process writes its own register) have no symmetric key.
	Key(relabel func(loc int) int) (key uint64, ok bool)
	// StartInc begins an increment of component v.
	StartInc(v int, next *sim.OpInfo)
	// StartDec begins a decrement of component v; it panics on machines for
	// unbounded counters, which Lemma 3.1's race never decrements.
	StartDec(v int, next *sim.OpInfo)
	// StartScan begins an atomic-looking scan of all components.
	StartScan(next *sim.OpInfo)
	// Step consumes the result of the previously issued instruction.
	Step(res machine.Value, next *sim.OpInfo) (more bool)
	// Counts returns the result of the last completed scan. Callers must
	// not retain it across operations or mutate it.
	Counts() []int64
}

// issue writes the instruction op@loc with args into next (see Machine).
func issue(next *sim.OpInfo, loc int, op machine.Op, args []machine.Value) {
	next.Loc, next.Op, next.Args = loc, op, args
}

// zeroed returns n zero words, in buf's storage when it has room.
func zeroed(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// mixCounts folds a count slice (with a length prefix, so nil and empty
// distinguish from longer states) into a rolling key.
func mixCounts(h uint64, xs []int64) uint64 {
	h = sim.MixKey(h, uint64(len(xs)))
	for _, x := range xs {
		h = sim.MixKey(h, uint64(x))
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
// pure decode into the first m words of buf, the buffer the machine owns.
type flatMachine struct {
	loc int
	m   int
	op  opKind
	buf []int64
}

func (f *flatMachine) Components() int { return f.m }

func (f *flatMachine) Counts() []int64 { return f.buf[:f.m] }

// key folds the operation in flight and, under a relabeling, the machine's
// single location.
func (f *flatMachine) key(tag uint64, relabel func(int) int) uint64 {
	return sim.FoldSpan(sim.MixKey(tag, uint64(f.op)), relabel, f.loc, 1)
}

// AddMachine is the base-3n digit m-component bounded counter of
// Theorem 3.3: one {read, add} (or {fetch-and-add}) location read as a
// number in base 3n whose (v+1)'st least significant digit is the count of
// component v. Counts must stay in {0,...,3n-1}; the racing algorithm of
// Lemma 3.2 guarantees that. With fetch, add-of-0 is the read.
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

// NewAddMachine builds the counter machine over location loc with m
// components and digit base 3n, on {fetch-and-add} alone when fetch is set.
func NewAddMachine(loc, m, n int, fetch bool) *AddMachine {
	base := big.NewInt(int64(3 * n))
	pows := make([]*big.Int, m)
	pow := big.NewInt(1)
	for v := 0; v < m; v++ {
		pows[v] = new(big.Int).Set(pow)
		pow = new(big.Int).Mul(pow, base)
	}
	c := &AddMachine{flatMachine: flatMachine{loc: loc, m: m, buf: make([]int64, m)}, base: base,
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
	p := sim.ForkTarget[AddMachine](prev)
	buf := p.buf
	*p = *c
	p.buf = append(buf[:0], c.buf...)
	return p
}

func (c *AddMachine) Key(relabel func(int) int) (uint64, bool) {
	return c.key(0x61646430, relabel), true
}

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
		decodeDigits(c.Counts(), res, c.base)
	}
	c.op = opIdle
	return false
}

// MulMachine is the prime-exponent m-component unbounded counter of
// Theorem 3.3: one {read, multiply} (or {fetch-and-multiply}) location,
// initialized to 1 (MultiplyInitial), component v counted in the exponent
// of the (v+1)'st prime. With fetch, multiply-by-1 is the read.
type MulMachine struct {
	flatMachine
	prms []*big.Int // shared, immutable
	// Precomputed immutable Start* instructions; see AddMachine.
	mulOp, scanOp machine.Op
	incArgs       [][]machine.Value
	scanArgs      []machine.Value
}

// NewMulMachine builds the counter machine over location loc with m
// components, on {fetch-and-multiply} alone when fetch is set.
func NewMulMachine(loc, m int, fetch bool) *MulMachine {
	ps := primes.First(m)
	prms := make([]*big.Int, m)
	for i, q := range ps {
		prms[i] = big.NewInt(q)
	}
	c := &MulMachine{flatMachine: flatMachine{loc: loc, m: m, buf: make([]int64, m)}, prms: prms,
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
	p := sim.ForkTarget[MulMachine](prev)
	buf := p.buf
	*p = *c
	p.buf = append(buf[:0], c.buf...)
	return p
}

func (c *MulMachine) Key(relabel func(int) int) (uint64, bool) {
	return c.key(0x6d756c30, relabel), true
}

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
		decodeFactors(c.Counts(), res, c.prms)
	}
	c.op = opIdle
	return false
}

// SetBitMachine is the bit-block m-component unbounded counter of
// Theorem 3.3: one {read, set-bit} location partitioned into consecutive
// blocks of m*n bits. When process i increments component v for the
// (b+1)'st time, it sets bit b*(m*n) + v*n + i, so every set bit is one
// increment and a single read recovers all counts. Its `mine` tallies, the
// m words after the counts in buf, are persistent process-local state and
// enter the key.
type SetBitMachine struct {
	flatMachine
	n, id int
}

// NewSetBitMachine builds process id's counter machine over location loc
// with m components shared by n processes.
func NewSetBitMachine(loc, m, n, id int) *SetBitMachine {
	return &SetBitMachine{flatMachine: flatMachine{loc: loc, m: m, buf: make([]int64, 2*m)}, n: n, id: id}
}

func (c *SetBitMachine) mine() []int64 { return c.buf[c.m:] }

func (c *SetBitMachine) ForkInto(prev Machine) Machine {
	p := sim.ForkTarget[SetBitMachine](prev)
	buf := p.buf
	*p = *c
	p.buf = append(buf[:0], c.buf...)
	return p
}

func (c *SetBitMachine) Key(relabel func(int) int) (uint64, bool) {
	h := mixCounts(c.key(0x73657430, nil), c.mine())
	if relabel == nil {
		return h, true
	}
	// The set-bit lanes are per-(component, process): which bit a future
	// increment sets depends on the machine's id, so the id is genuine
	// behavioral state here — unlike in the exact per-pid key, where the
	// entry's position implies it. Folding it in keeps set-bit processes
	// unmerged across pids, which is the sound under-approximation (merging
	// them would equate memories whose lane blocks differ).
	return sim.FoldSpan(sim.MixKey(h, uint64(c.id)), relabel, c.loc, 1), true
}

func (c *SetBitMachine) StartInc(v int, next *sim.OpInfo) {
	mine := c.mine()
	b := mine[v]
	mine[v]++
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
		decodeBitBlocks(c.Counts(), res, c.n)
	}
	c.op = opIdle
	return false
}

// --- multi-location machines (increment, unary bits) -------------------------

// IncMachine is the m-component unbounded counter over m {read,
// increment} (or fetch-and-increment) locations of Section 5. Counts only
// grow, so two equal consecutive collects form an atomic scan.
type IncMachine struct {
	base, m int
	fai     bool
	op      opKind
	idx     int
	// havePrev marks that the scan in flight has completed a collect, held
	// in the prev words.
	havePrev bool
	// buf holds the collect in flight (cur), the previous collect (prev) and
	// the last completed scan (counts), m words each.
	buf []int64
}

// NewIncMachineInto builds the counter machine over locations
// base..base+m-1, updating with fetch-and-increment when fai is set, built in prev's storage when prev is an *IncMachine (see
// sim.ForkTarget).
func NewIncMachineInto(prev Machine, base, m int, fai bool) *IncMachine {
	p := sim.ForkTarget[IncMachine](prev)
	*p = IncMachine{base: base, m: m, fai: fai, buf: zeroed(p.buf, 3*m)}
	return p
}

func (c *IncMachine) Components() int { return c.m }

// cur is the collect in flight, nil outside a scan.
func (c *IncMachine) cur() []int64 {
	if c.op != opScan {
		return nil
	}
	return c.buf[:c.m]
}

func (c *IncMachine) prev() []int64 { return c.buf[c.m : 2*c.m] }

func (c *IncMachine) Counts() []int64 { return c.buf[2*c.m:] }

func (c *IncMachine) ForkInto(prev Machine) Machine {
	p := sim.ForkTarget[IncMachine](prev)
	buf := p.buf
	*p = *c
	p.buf = append(buf[:0], c.buf...)
	return p
}

func (c *IncMachine) Key(relabel func(int) int) (uint64, bool) {
	h := sim.MixKey(0x696e6330, uint64(c.op))
	h = sim.MixKey(h, uint64(c.idx))
	h = mixCounts(h, c.cur())
	if !c.havePrev {
		h = sim.MixKey(h, 0)
	} else {
		h = mixCounts(sim.MixKey(h, 1), c.prev())
	}
	return sim.FoldSpan(h, relabel, c.base, c.m), true
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

// StartScan and each later collect start from zeroed cur words: Key hashes
// all m of them, not just the filled prefix.
func (c *IncMachine) StartScan(next *sim.OpInfo) {
	c.op = opScan
	c.idx = 0
	clear(c.cur())
	c.havePrev = false
	issue(next, c.base, machine.OpRead, nil)
}

func (c *IncMachine) Step(res machine.Value, next *sim.OpInfo) bool {
	if c.op != opScan {
		c.op = opIdle
		return false
	}
	cur := c.cur()
	cur[c.idx] = mustInt64(res)
	c.idx++
	if c.idx < c.m {
		issue(next, c.base+c.idx, machine.OpRead, nil)
		return true
	}
	// One collect complete: two equal consecutive collects form the
	// snapshot.
	if c.havePrev && slices.Equal(cur, c.prev()) {
		copy(c.Counts(), cur)
		c.havePrev = false
		c.op = opIdle
		return false
	}
	copy(c.prev(), cur)
	c.havePrev = true
	clear(cur)
	c.idx = 0
	issue(next, c.base, machine.OpRead, nil)
	return true
}

// unary sub-phases.
const (
	uSearch uint8 = iota // scanning bits for the one to flip (inc/dec)
	uFlip                // the set/clear instruction is in flight
)

// UnaryMachine is an m-component bounded counter over single-bit
// locations, used by the O(n log n) upper bounds of Theorem 9.4: component
// v's count is the number of set bits among its width locations, written
// with write(1)/write(0) or test-and-set/reset. An increment sets the lowest
// clear bit, a decrement clears the highest set bit, and a scan collects
// all bits until `confirming` consecutive collects agree.
//
// This is a reconstruction in the spirit of Bowman's technical report (the
// paper's [Bow11], cited for the 2n-bit binary consensus building block):
// the racing algorithm of Lemma 3.2 keeps every component's count within
// {0,...,3n-1}, so a width of 3n bits per component suffices and no
// wrap-around ever occurs. See DESIGN.md for the substitution note.
type UnaryMachine struct {
	base, m, width int
	// bits is the number of bit locations, m*width, and words the number of
	// words one packed collect of them takes; both fixed at construction.
	bits, words    int
	setOp, clearOp machine.Op
	confirming     int

	op   opKind
	sub  uint8
	v    int // component of the in-flight inc/dec
	j    int // bit cursor of the in-flight inc/dec
	idx  int // collect cursor of the in-flight scan
	same int
	// havePrev marks that the scan in flight has completed a collect, held
	// in the prev words.
	havePrev bool
	// buf holds the collect in flight (cur) and the previous collect
	// (prev), m*width bits each, packed (bit i in bit i%64 of word i/64),
	// then the last completed scan's m counts.
	buf []int64
}

// NewUnaryMachineInto builds the counter machine of m components of width
// bits from location base, on test-and-set/reset when tas is set, built in prev's storage when prev is a *UnaryMachine (see
// sim.ForkTarget).
func NewUnaryMachineInto(prev Machine, base, m, width int, tas bool) *UnaryMachine {
	p := sim.ForkTarget[UnaryMachine](prev)
	words := (m*width + 63) / 64
	*p = UnaryMachine{base: base, m: m, width: width, bits: m * width, words: words,
		setOp: machine.OpWriteOne, clearOp: machine.OpWriteZero, confirming: 2,
		buf: zeroed(p.buf, 2*words+m)}
	if tas {
		p.setOp, p.clearOp = machine.OpTestAndSet, machine.OpReset
	}
	return p
}

func (c *UnaryMachine) Components() int { return c.m }

func (c *UnaryMachine) cur() []int64 { return c.buf[:c.words] }

func (c *UnaryMachine) prev() []int64 { return c.buf[c.words : 2*c.words] }

func (c *UnaryMachine) Counts() []int64 { return c.buf[2*c.words:] }

func (c *UnaryMachine) ForkInto(prev Machine) Machine {
	p := sim.ForkTarget[UnaryMachine](prev)
	buf := p.buf
	*p = *c
	p.buf = append(buf[:0], c.buf...)
	return p
}

// collect starts a collect into zeroed cur words: Key hashes all of them,
// not just the filled prefix.
func (c *UnaryMachine) collect(next *sim.OpInfo) {
	clear(c.cur())
	c.idx = 0
	issue(next, c.base, machine.OpRead, nil)
}

func (c *UnaryMachine) Key(relabel func(int) int) (uint64, bool) {
	h := sim.MixKey(0x756e7230, uint64(c.op))
	h = sim.MixKey(h, uint64(c.sub)|uint64(c.v)<<8)
	h = sim.MixKey(h, uint64(c.j)|uint64(c.idx)<<16|uint64(c.same)<<32)
	h = mixBits(h, c.op == opScan, c.cur(), c.bits)
	h = mixBits(h, c.havePrev, c.prev(), c.bits)
	return sim.FoldSpan(h, relabel, c.base, c.bits), true
}

// mixBits folds an n-bit packed collect (length-prefixed, each bit as 3 or
// 5), or a bare zero length when the collect is absent.
func mixBits(h uint64, present bool, words []int64, n int) uint64 {
	if !present {
		return sim.MixKey(h, 0)
	}
	h = sim.MixKey(h, uint64(n))
	for i := 0; i < n; i++ {
		if bit(words, i) != 0 {
			h = sim.MixKey(h, 3)
		} else {
			h = sim.MixKey(h, 5)
		}
	}
	return h
}

// bit returns bit i of a packed collect, 0 or 1.
func bit(words []int64, i int) int64 { return words[i/64] >> (i % 64) & 1 }

// ones counts the set bits lo..hi-1 of a packed collect, a word at a time.
func ones(words []int64, lo, hi int) int64 {
	n := 0
	for lo < hi {
		k := min(hi-lo, 64-lo%64)
		w := uint64(words[lo/64]) >> (lo % 64)
		if k < 64 {
			w &= 1<<k - 1
		}
		n += bits.OnesCount64(w)
		lo += k
	}
	return int64(n)
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
	c.havePrev = false
	c.same = 0
	c.collect(next)
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
		cur := c.cur()
		if mustInt64(res) != 0 {
			cur[c.idx/64] |= 1 << (c.idx % 64)
		}
		c.idx++
		if c.idx < c.bits {
			issue(next, c.base+c.idx, machine.OpRead, nil)
			return true
		}
		// One collect complete: require `confirming` consecutive identical
		// collects.
		if c.havePrev && slices.Equal(cur, c.prev()) {
			c.same++
		} else {
			c.same = 1
		}
		copy(c.prev(), cur)
		c.havePrev = true
		if c.same >= c.confirming {
			cnt := c.Counts()
			for v := range cnt {
				cnt[v] = ones(cur, v*c.width, (v+1)*c.width)
			}
			c.havePrev = false
			c.op = opIdle
			return false
		}
		c.collect(next)
		return true
	}
	c.op = opIdle
	return false
}
