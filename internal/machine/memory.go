package machine

import (
	"errors"
	"fmt"
	"math/big"
)

// ErrUnsupported is returned when an instruction outside the memory's
// instruction set is applied, violating the uniformity requirement.
var ErrUnsupported = errors.New("machine: instruction not in memory's instruction set")

// ErrBadOperand is returned when an instruction receives an argument of the
// wrong kind (for example a non-numeric operand to add).
var ErrBadOperand = errors.New("machine: bad operand")

// ErrOutOfRange is returned when a location index is negative, or exceeds a
// bounded memory's size.
var ErrOutOfRange = errors.New("machine: location out of range")

// location is the state of a single memory location. Plain-value
// instructions use val; l-buffer instructions use buf/writes. A location may
// be used in both modes only if the instruction set mixes both families
// (none of the paper's sets do).
type location struct {
	val    Value
	buf    []Value // most recent l buffer-writes, oldest first
	writes int     // total buffer-writes ever applied

	// Channel state (ChanKind != ChanNone, see channel.go): pending holds
	// sent-but-undelivered messages in send order, inbox holds
	// delivered-but-unreceived messages in delivery order. Kind and cap are
	// structural (fixed at construction, excluded from hashing); the queues
	// are observable state and fold into cellHash.
	pending  []Value
	inbox    []Value
	chanKind ChanKind
	chanCap  int

	// hlo, hhi cache this location's locHash128 term, so a mutating
	// instruction XORs the old term out of the rolling fingerprint without
	// rehashing the contents it is about to replace.
	hlo, hhi uint64
}

// The queues (buf, pending, inbox) are immutable once stored: clones share
// their backing arrays, so no instruction ever writes into one. Every
// mutation stores a fresh array (pushWindow, withoutRank) or a reslice of
// the old one whose capacity is clipped to its length, and stored values —
// plain contents included — are never mutated in place either. A struct
// copy of a location is therefore a complete, independent snapshot of it.

// pushWindow returns vs with v appended in a fresh array, keeping only the
// newest max entries.
func pushWindow(vs []Value, v Value, max int) []Value {
	keep := len(vs) + 1
	if keep > max {
		keep = max
	}
	if keep <= 0 {
		return nil
	}
	out := make([]Value, keep)
	copy(out, vs[len(vs)+1-keep:])
	out[keep-1] = v
	return out
}

// withoutRank returns vs with entry i removed. The first and last entries
// are removed by a reslice with clipped capacity; a middle one by a copy.
// A queue that empties becomes nil.
func withoutRank(vs []Value, i int) []Value {
	switch {
	case len(vs) == 1:
		return nil
	case i == 0:
		return vs[1:len(vs):len(vs)]
	case i == len(vs)-1:
		return vs[:i:i]
	}
	out := make([]Value, len(vs)-1)
	copy(out, vs[:i])
	copy(out[i:], vs[i+1:])
	return out
}

// Memory is a collection of identical locations supporting one instruction
// set. A Memory may be bounded (fixed number of locations) or unbounded
// (locations materialize on first touch), matching the paper's Table 1 rows
// whose space complexity is infinite.
//
// Memory is not safe for concurrent use: the process runtime serializes all
// instruction applications, which is exactly the atomicity the model grants.
type Memory struct {
	set       InstrSet
	locs      []location
	caps      []int // per-location buffer capacity; nil means uniform set l
	unbounded bool
	stats     Stats
	// fp is the incrementally maintained canonical fingerprint: the XOR of
	// locHash over all locations, updated per mutating instruction. See
	// hash.go for the canonicalization rules. fph is the second lane of the
	// 128-bit fingerprint (locHash128), maintained by the same hooks.
	fp  uint64
	fph uint64
}

// Option configures a Memory.
type Option func(*Memory)

// WithUnbounded lets the memory grow on first touch to any location index;
// Footprint reports how many locations were actually used. It models the
// unbounded-space rows of Table 1 (Section 9).
func WithUnbounded() Option {
	return func(m *Memory) { m.unbounded = true }
}

// WithCapacities overrides the buffer capacity per location, enabling the
// heterogeneous-capacity extension of Section 6.2 (sum of capacities >= n-1).
// len(caps) must equal the number of locations.
func WithCapacities(caps []int) Option {
	return func(m *Memory) {
		m.caps = append([]int(nil), caps...)
	}
}

// WithInitial sets the initial value of specific locations; unlisted
// locations keep the default 0. Several of the paper's protocols initialize
// a location to 1 (the multiply-based counters of Section 3).
func WithInitial(vals map[int]Value) Option {
	return func(m *Memory) {
		for loc, v := range vals {
			if loc < 0 || loc >= len(m.locs) {
				panic(fmt.Sprintf("machine: WithInitial location %d out of range", loc))
			}
			m.locs[loc].val = v
		}
	}
}

// New creates a memory of size locations all supporting set. Numeric
// locations start holding 0 (represented lazily as nil, which AsInt reads
// as 0); buffers start empty, so the first l-buffer-read returns all-nil,
// the paper's ⊥ padding.
func New(set InstrSet, size int, opts ...Option) *Memory {
	if size < 0 {
		panic("machine: negative memory size")
	}
	m := &Memory{set: set, locs: make([]location, size)}
	m.stats.PerLoc = make([]int64, size)
	for _, o := range opts {
		o(m)
	}
	if m.caps != nil && len(m.caps) != size {
		panic("machine: WithCapacities length mismatch")
	}
	for i := range m.locs {
		m.locs[i].val = normValue(m.locs[i].val)
		m.rehash(i)
	}
	return m
}

// Clone returns an independent copy of the memory in O(locations): the
// location structs are copied and nothing else. Queues and stored values
// are immutable once stored (see location), so the clone shares them with
// the original, and the instruction set and capacities are fixed at
// construction; only the instrumentation counters are duplicated. The
// clone and the original never observe each other's subsequent
// instructions. Clone only reads the receiver: concurrent Clones of one
// Memory are safe as long as no goroutine concurrently applies
// instructions to it (the System.Fork concurrency contract).
func (m *Memory) Clone() *Memory {
	n := &Memory{}
	m.CloneInto(n)
	return n
}

// CloneInto is Clone writing over a recycled Memory: semantically identical
// to n = m.Clone(), but n's location and instrumentation buffers are reused
// when they have capacity, so a steady-state fork-and-discard loop (the
// explorer's, via sim.Pool) allocates nothing here. n's previous contents
// are destroyed. Like Clone it only reads the receiver.
func (m *Memory) CloneInto(n *Memory) {
	n.set = m.set
	n.caps = m.caps // immutable after construction
	n.unbounded = m.unbounded
	n.fp = m.fp
	n.fph = m.fph
	n.locs = append(n.locs[:0], m.locs...)
	perLoc := append(n.stats.PerLoc[:0], m.stats.PerLoc...)
	n.stats = m.stats
	n.stats.PerLoc = perLoc
	n.stats.PerOp = nil
}

// Size returns the current number of locations (for unbounded memories, the
// high-water mark of touched indices plus one).
func (m *Memory) Size() int { return len(m.locs) }

// capacity returns the l-buffer capacity of location i.
func (m *Memory) capacity(i int) int {
	if m.caps != nil && i < len(m.caps) {
		return m.caps[i]
	}
	return m.set.bufferLen
}

func (m *Memory) grow(loc int) error {
	if loc < 0 {
		return fmt.Errorf("%w: location %d", ErrOutOfRange, loc)
	}
	if loc < len(m.locs) {
		return nil
	}
	if !m.unbounded {
		return fmt.Errorf("%w: location %d of %d", ErrOutOfRange, loc, len(m.locs))
	}
	for len(m.locs) <= loc {
		m.locs = append(m.locs, location{})
		m.stats.PerLoc = append(m.stats.PerLoc, 0)
	}
	return nil
}

// Apply performs one atomic instruction on one location and returns its
// result. It is the only way the contents of memory change, aside from
// MultiAssign.
func (m *Memory) Apply(loc int, op Op, args ...Value) (Value, error) {
	if !m.set.Supports(op) {
		return nil, fmt.Errorf("%w: %v on %v", ErrUnsupported, op, m.set)
	}
	if len(args) != op.arity() {
		return nil, fmt.Errorf("%w: %v takes %d arguments, got %d",
			ErrBadOperand, op, op.arity(), len(args))
	}
	if uint(loc) >= uint(len(m.locs)) { // out of range or not yet grown
		if err := m.grow(loc); err != nil {
			return nil, err
		}
	}
	res, err := m.apply(loc, op, args)
	if err != nil {
		return nil, err
	}
	m.stats.record(loc, op, &m.locs[loc])
	return res, nil
}

// apply dispatches without instrumentation and keeps the canonical
// fingerprint current: a mutating instruction rehashes the touched location
// once, after it applies, and swaps the new term for the cached old one in
// the rolling fingerprint. An instruction that fails changes nothing. Used
// by Apply and MultiAssign.
func (m *Memory) apply(loc int, op Op, args []Value) (Value, error) {
	res, err := m.applyOp(loc, op, args)
	if err == nil && !op.Trivial() {
		m.rehash(loc)
	}
	return res, err
}

// rehash recomputes location i's locHash128 term and rolls the fingerprint
// from the cached term to the new one.
func (m *Memory) rehash(i int) {
	l := &m.locs[i]
	lo, hi := locHash128(i, l)
	m.fp ^= l.hlo ^ lo
	m.fph ^= l.hhi ^ hi
	l.hlo, l.hhi = lo, hi
}

// applyOp performs the instruction itself. Numeric instructions run on the
// allocation-free word fast path whenever the location contents and operands
// fit in int64, promoting to *big.Int only on overflow (the paper's multiply
// rows grow without bound, so the slow path stays reachable).
func (m *Memory) applyOp(loc int, op Op, args []Value) (Value, error) {
	l := &m.locs[loc]
	num := func(v Value) (*big.Int, error) {
		x, ok := AsInt(v)
		if !ok {
			return nil, fmt.Errorf("%w: %v requires numeric value, have %T",
				ErrBadOperand, op, v)
		}
		return x, nil
	}
	switch op {
	case OpRead, OpReadMax:
		return cloneValue(l.val), nil

	case OpWrite:
		l.val = normValue(args[0])
		return nil, nil

	case OpWriteZero, OpReset:
		l.val = word(0)
		return nil, nil

	case OpWriteOne:
		l.val = word(1)
		return nil, nil

	case OpTestAndSet:
		if cur, ok := asWord(l.val); ok {
			if cur == 0 {
				l.val = word(1)
			}
			return word(cur), nil
		}
		cur, err := num(l.val)
		if err != nil {
			return nil, err
		}
		old := new(big.Int).Set(cur)
		if cur.Sign() == 0 {
			l.val = word(1)
		}
		return old, nil

	case OpSwap:
		old := cloneValue(l.val) // a clone may share the stored big.Int
		l.val = normValue(args[0])
		return old, nil

	case OpFetchAndAdd:
		old := cloneValue(l.val)
		if err := m.addTo(l, args[0], num); err != nil {
			return nil, err
		}
		return old, nil

	case OpFetchAndIncrement:
		old := cloneValue(l.val)
		if err := m.addTo(l, word(1), num); err != nil {
			return nil, err
		}
		return old, nil

	case OpFetchAndMultiply:
		old := cloneValue(l.val)
		if err := m.mulTo(l, args[0], num); err != nil {
			return nil, err
		}
		return old, nil

	case OpIncrement:
		return nil, m.addTo(l, word(1), num)

	case OpDecrement:
		return nil, m.addTo(l, word(-1), num)

	case OpAdd:
		return nil, m.addTo(l, args[0], num)

	case OpMultiply:
		return nil, m.mulTo(l, args[0], num)

	case OpSetBit:
		if cur, ok := asWord(l.val); ok && cur >= 0 {
			if bit, ok := asWord(args[0]); ok && bit >= 0 && bit < 62 {
				l.val = word(cur | int64(1)<<bit)
				return nil, nil
			}
		}
		cur, err := num(l.val)
		if err != nil {
			return nil, err
		}
		bit, err := num(args[0])
		if err != nil {
			return nil, err
		}
		if !bit.IsInt64() || bit.Sign() < 0 {
			return nil, fmt.Errorf("%w: set-bit index %v", ErrBadOperand, bit)
		}
		l.val = new(big.Int).SetBit(cur, int(bit.Int64()), 1)
		return nil, nil

	case OpWriteMax:
		if cur, ok := asWord(l.val); ok {
			if arg, ok := asWord(args[0]); ok {
				if arg > cur {
					l.val = word(arg)
				}
				return nil, nil
			}
		}
		cur, err := num(l.val)
		if err != nil {
			return nil, err
		}
		arg, err := num(args[0])
		if err != nil {
			return nil, err
		}
		if arg.Cmp(cur) > 0 {
			l.val = normValue(new(big.Int).Set(arg))
		}
		return nil, nil

	case OpBufferRead:
		cap := m.capacity(loc)
		out := make([]Value, cap)
		// The first cap-len(buf) entries stay nil (the paper's ⊥).
		copy(out[cap-len(l.buf):], l.buf)
		return out, nil

	case OpBufferWrite:
		l.buf = pushWindow(l.buf, args[0], m.capacity(loc))
		l.writes++
		return nil, nil

	case OpCompareAndSwap:
		old := cloneValue(l.val)
		if EqualValues(l.val, args[0]) {
			l.val = normValue(args[1])
		}
		return old, nil

	case OpChanSend, OpChanRecv, OpChanDeliver, OpChanDrop:
		return m.applyChan(loc, l, op, args)

	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, op)
	}
}

// addTo adds delta to l.val in place, on the word fast path when possible.
func (m *Memory) addTo(l *location, delta Value, num func(Value) (*big.Int, error)) error {
	if cur, ok := asWord(l.val); ok {
		if d, ok := asWord(delta); ok && !addOverflows(cur, d) {
			l.val = word(cur + d)
			return nil
		}
	}
	cur, err := num(l.val)
	if err != nil {
		return err
	}
	arg, err := num(delta)
	if err != nil {
		return err
	}
	l.val = normValue(new(big.Int).Add(cur, arg))
	return nil
}

// mulTo multiplies l.val by factor in place, on the word fast path when
// possible.
func (m *Memory) mulTo(l *location, factor Value, num func(Value) (*big.Int, error)) error {
	if cur, ok := asWord(l.val); ok {
		if f, ok := asWord(factor); ok {
			if prod, ok := mulInt64(cur, f); ok {
				l.val = word(prod)
				return nil
			}
		}
	}
	cur, err := num(l.val)
	if err != nil {
		return err
	}
	arg, err := num(factor)
	if err != nil {
		return err
	}
	l.val = normValue(new(big.Int).Mul(cur, arg))
	return nil
}

// Assignment names one write-class instruction of an atomic multiple
// assignment.
type Assignment struct {
	Loc  int
	Op   Op
	Args []Value
}

// MultiAssign atomically performs one write-class instruction per listed
// location, the paper's model of a simple transaction (Section 7). The whole
// call is a single step. Locations must be distinct. If any assignment
// fails, the memory is left exactly as it was: no location, fingerprint or
// counter moves.
func (m *Memory) MultiAssign(writes []Assignment) error {
	if !m.set.multiAssign {
		return fmt.Errorf("%w: multiple assignment on %v", ErrUnsupported, m.set)
	}
	for k, w := range writes {
		if !w.Op.WriteClass() {
			return fmt.Errorf("%w: %v is not a write-class instruction in a multiple assignment",
				ErrBadOperand, w.Op)
		}
		if !m.set.Supports(w.Op) {
			return fmt.Errorf("%w: %v on %v", ErrUnsupported, w.Op, m.set)
		}
		if len(w.Args) != w.Op.arity() {
			return fmt.Errorf("%w: %v takes %d arguments, got %d",
				ErrBadOperand, w.Op, w.Op.arity(), len(w.Args))
		}
		for _, prev := range writes[:k] {
			if prev.Loc == w.Loc {
				return fmt.Errorf("%w: duplicate location %d in multiple assignment",
					ErrBadOperand, w.Loc)
			}
		}
		if err := m.grow(w.Loc); err != nil {
			return err
		}
	}
	// Snapshot the touched locations before applying: queues and values are
	// immutable once stored, so a struct copy restores a location fully.
	var stack [4]location
	saved := stack[:0]
	if len(writes) > len(stack) {
		saved = make([]location, 0, len(writes))
	}
	fp, fph := m.fp, m.fph
	for _, w := range writes {
		saved = append(saved, m.locs[w.Loc])
		if _, err := m.apply(w.Loc, w.Op, w.Args); err != nil {
			for k, l := range saved {
				m.locs[writes[k].Loc] = l
			}
			m.fp, m.fph = fp, fph
			return err
		}
	}
	m.stats.recordMulti(writes, m)
	return nil
}

// Peek returns the current plain value of a location without counting as a
// step. It exists for tests, adversaries, and instrumentation — algorithms
// must go through Apply.
func (m *Memory) Peek(loc int) Value {
	if loc < 0 || loc >= len(m.locs) {
		return nil
	}
	return cloneValue(m.locs[loc].val)
}

// PeekBuffer returns a copy of the buffer contents of a location (oldest
// first, unpadded) without counting as a step.
func (m *Memory) PeekBuffer(loc int) []Value {
	if loc < 0 || loc >= len(m.locs) {
		return nil
	}
	return append([]Value(nil), m.locs[loc].buf...)
}

// Stats returns a copy of the memory's instrumentation counters.
func (m *Memory) Stats() Stats { return m.stats.clone() }

// Fingerprint returns a deterministic string capturing the canonical
// contents of memory. Locations in the zero state (value 0, empty buffer)
// are omitted, so two memories are observationally equivalent — every
// instruction sequence returns the same results on both — exactly when
// their fingerprints are equal, regardless of value representation or of
// how many zero locations an unbounded memory has materialized. Tests and
// the differential suites compare configurations with it; the explorer's
// dedup key uses the incremental Fingerprint64 instead.
func (m *Memory) Fingerprint() string {
	out := make([]byte, 0, 64)
	for i := range m.locs {
		l := &m.locs[i]
		if len(l.buf) == 0 && zeroValue(l.val) && len(l.pending) == 0 && len(l.inbox) == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%d=%s", i, canonicalValueString(l.val))...)
		if len(l.buf) > 0 {
			out = append(out, '[')
			for _, v := range l.buf {
				out = append(out, canonicalValueString(v)...)
				out = append(out, ',')
			}
			out = append(out, ']')
		}
		if len(l.pending) > 0 || len(l.inbox) > 0 {
			out = append(out, "p("...)
			for _, v := range canonicalPending(l) {
				out = append(out, canonicalValueString(v)...)
				out = append(out, ',')
			}
			out = append(out, ")i("...)
			for _, v := range l.inbox {
				out = append(out, canonicalValueString(v)...)
				out = append(out, ',')
			}
			out = append(out, ')')
		}
		out = append(out, ';')
	}
	return string(out)
}

// Fingerprint64 returns the canonical 64-bit fingerprint of the memory
// contents. It is maintained incrementally — each mutating instruction
// updates it in O(touched location) — so reading it is free; equal states
// always fingerprint equally, and distinct states collide only with the
// usual 64-bit hash probability. It is the memory component of the
// explorer's seen-state key.
func (m *Memory) Fingerprint64() uint64 { return m.fp }

// Fingerprint128 returns the canonical 128-bit fingerprint of the memory
// contents: two independently tagged lanes over the same per-location terms
// as Fingerprint64, maintained by the same mutating-instruction hooks, so
// reading it is free. It feeds the sim layer's incremental StateHash128,
// letting the explorer's compacted keying path stop re-streaming the memory
// per state.
func (m *Memory) Fingerprint128() Hash128 { return Hash128{Lo: m.fp, Hi: m.fph} }
