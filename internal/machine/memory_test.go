package machine

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustApply(t *testing.T, m *Memory, loc int, op Op, args ...Value) Value {
	t.Helper()
	v, err := m.Apply(loc, op, args...)
	if err != nil {
		t.Fatalf("Apply(%d, %v, %v): %v", loc, op, args, err)
	}
	return v
}

func wantInt(t *testing.T, v Value, want int64) {
	t.Helper()
	x, ok := AsInt(v)
	if !ok {
		t.Fatalf("value %v (%T) is not numeric", v, v)
	}
	if x.Cmp(big.NewInt(want)) != 0 {
		t.Fatalf("got %v, want %d", x, want)
	}
}

func TestReadWrite(t *testing.T) {
	m := New(SetReadWrite, 2)
	wantInt(t, mustApply(t, m, 0, OpRead), 0)
	mustApply(t, m, 0, OpWrite, Int(42))
	wantInt(t, mustApply(t, m, 0, OpRead), 42)
	// Arbitrary payloads may be written.
	type rec struct{ A, B int }
	mustApply(t, m, 1, OpWrite, rec{1, 2})
	got := mustApply(t, m, 1, OpRead)
	if got != (rec{1, 2}) {
		t.Fatalf("got %v, want {1 2}", got)
	}
}

func TestUniformityEnforced(t *testing.T) {
	m := New(SetReadWrite, 1)
	if _, err := m.Apply(0, OpTestAndSet); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
	if _, err := m.Apply(0, OpFetchAndAdd, Int(1)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
}

func TestArityChecked(t *testing.T) {
	m := New(SetReadWrite, 1)
	if _, err := m.Apply(0, OpWrite); !errors.Is(err, ErrBadOperand) {
		t.Fatalf("want ErrBadOperand for missing argument, got %v", err)
	}
	if _, err := m.Apply(0, OpRead, Int(1)); !errors.Is(err, ErrBadOperand) {
		t.Fatalf("want ErrBadOperand for extra argument, got %v", err)
	}
}

func TestOutOfRange(t *testing.T) {
	m := New(SetReadWrite, 1)
	if _, err := m.Apply(1, OpRead); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
	if _, err := m.Apply(-1, OpRead); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
}

func TestUnboundedGrowth(t *testing.T) {
	m := New(SetReadWrite1, 0, WithUnbounded())
	mustApply(t, m, 99, OpWriteOne)
	wantInt(t, mustApply(t, m, 99, OpRead), 1)
	wantInt(t, mustApply(t, m, 7, OpRead), 0)
	if m.Size() != 100 {
		t.Fatalf("size = %d, want 100", m.Size())
	}
	// Footprint counts touched locations only.
	if got := m.Stats().Footprint(); got != 2 {
		t.Fatalf("footprint = %d, want 2", got)
	}
}

func TestTestAndSet(t *testing.T) {
	m := New(SetReadTAS, 1)
	wantInt(t, mustApply(t, m, 0, OpTestAndSet), 0)
	wantInt(t, mustApply(t, m, 0, OpTestAndSet), 1)
	wantInt(t, mustApply(t, m, 0, OpRead), 1)
}

// TestTestAndSetStronger checks the paper's strengthened definition: a
// location holding a value other than 0 is returned but NOT overwritten.
func TestTestAndSetStronger(t *testing.T) {
	m := New(NewInstrSet("t", OpTestAndSet, OpFetchAndAdd), 1)
	mustApply(t, m, 0, OpFetchAndAdd, Int(6))
	wantInt(t, mustApply(t, m, 0, OpTestAndSet), 6)
	// Value 6 is unchanged because the location did not contain 0.
	wantInt(t, mustApply(t, m, 0, OpFetchAndAdd, Int(0)), 6)
}

func TestReset(t *testing.T) {
	m := New(SetReadTASReset, 1)
	mustApply(t, m, 0, OpTestAndSet)
	wantInt(t, mustApply(t, m, 0, OpRead), 1)
	mustApply(t, m, 0, OpReset)
	wantInt(t, mustApply(t, m, 0, OpRead), 0)
}

func TestSwap(t *testing.T) {
	m := New(SetReadSwap, 1)
	old := mustApply(t, m, 0, OpSwap, "a")
	if old != nil {
		t.Fatalf("first swap returned %v, want nil", old)
	}
	if got := mustApply(t, m, 0, OpSwap, "b"); got != "a" {
		t.Fatalf("second swap returned %v, want a", got)
	}
	if got := mustApply(t, m, 0, OpRead); got != "b" {
		t.Fatalf("read returned %v, want b", got)
	}
}

func TestFetchAndAdd(t *testing.T) {
	m := New(SetFAA, 1)
	wantInt(t, mustApply(t, m, 0, OpFetchAndAdd, Int(2)), 0)
	wantInt(t, mustApply(t, m, 0, OpFetchAndAdd, Int(-5)), 2)
	wantInt(t, mustApply(t, m, 0, OpFetchAndAdd, Int(0)), -3)
}

func TestFetchAndIncrement(t *testing.T) {
	m := New(SetReadWriteFAI, 1)
	wantInt(t, mustApply(t, m, 0, OpFetchAndIncrement), 0)
	wantInt(t, mustApply(t, m, 0, OpFetchAndIncrement), 1)
	wantInt(t, mustApply(t, m, 0, OpRead), 2)
}

func TestFetchAndMultiply(t *testing.T) {
	m := New(SetFetchMultiply, 1)
	wantInt(t, mustApply(t, m, 0, OpFetchAndMultiply, Int(3)), 0)
	// Location started at 0, so it stays 0: seed it via a fresh memory whose
	// algorithms initialize by convention with multiply-only semantics.
	m2 := New(NewInstrSet("t", OpFetchAndMultiply, OpFetchAndAdd), 1)
	mustApply(t, m2, 0, OpFetchAndAdd, Int(1))
	wantInt(t, mustApply(t, m2, 0, OpFetchAndMultiply, Int(3)), 1)
	wantInt(t, mustApply(t, m2, 0, OpFetchAndMultiply, Int(5)), 3)
	wantInt(t, mustApply(t, m2, 0, OpFetchAndMultiply, Int(1)), 15)
}

func TestIncrementDecrement(t *testing.T) {
	m := New(NewInstrSet("t", OpRead, OpIncrement, OpDecrement), 1)
	mustApply(t, m, 0, OpIncrement)
	mustApply(t, m, 0, OpIncrement)
	mustApply(t, m, 0, OpDecrement)
	wantInt(t, mustApply(t, m, 0, OpRead), 1)
}

func TestAddMultiply(t *testing.T) {
	m := New(NewInstrSet("t", OpRead, OpAdd, OpMultiply), 1)
	mustApply(t, m, 0, OpAdd, Int(7))
	mustApply(t, m, 0, OpMultiply, Int(6))
	wantInt(t, mustApply(t, m, 0, OpRead), 42)
	mustApply(t, m, 0, OpAdd, Int(-43))
	wantInt(t, mustApply(t, m, 0, OpRead), -1)
}

func TestSetBit(t *testing.T) {
	m := New(SetReadSetBit, 1)
	mustApply(t, m, 0, OpSetBit, Int(0))
	mustApply(t, m, 0, OpSetBit, Int(5))
	mustApply(t, m, 0, OpSetBit, Int(5)) // idempotent
	wantInt(t, mustApply(t, m, 0, OpRead), 33)
	if _, err := m.Apply(0, OpSetBit, Int(-1)); !errors.Is(err, ErrBadOperand) {
		t.Fatalf("negative bit index: want ErrBadOperand, got %v", err)
	}
}

func TestMaxRegister(t *testing.T) {
	m := New(SetMaxRegister, 1)
	mustApply(t, m, 0, OpWriteMax, Int(5))
	mustApply(t, m, 0, OpWriteMax, Int(3)) // smaller: ignored
	wantInt(t, mustApply(t, m, 0, OpReadMax), 5)
	mustApply(t, m, 0, OpWriteMax, Int(9))
	wantInt(t, mustApply(t, m, 0, OpReadMax), 9)
}

// TestMaxRegisterMonotone is the property test for the max-register
// specification: after any sequence of write-max operations the register
// holds the maximum argument seen (or 0).
func TestMaxRegisterMonotone(t *testing.T) {
	f := func(ws []int64) bool {
		m := New(SetMaxRegister, 1)
		max := int64(0)
		for _, w := range ws {
			if _, err := m.Apply(0, OpWriteMax, Int(w)); err != nil {
				return false
			}
			if w > max {
				max = w
			}
			v, err := m.Apply(0, OpReadMax)
			if err != nil {
				return false
			}
			x, _ := AsInt(v)
			if x.Cmp(big.NewInt(max)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAndSwap(t *testing.T) {
	m := New(SetCAS, 1)
	// CAS(0, 7) succeeds on the initial 0.
	wantInt(t, mustApply(t, m, 0, OpCompareAndSwap, Int(0), Int(7)), 0)
	// CAS(0, 9) now fails and returns the current value.
	wantInt(t, mustApply(t, m, 0, OpCompareAndSwap, Int(0), Int(9)), 7)
	// CAS(x, x) is a read.
	wantInt(t, mustApply(t, m, 0, OpCompareAndSwap, Int(7), Int(7)), 7)
}

func TestBuffer(t *testing.T) {
	m := New(SetBuffers(3), 1)
	pad := func(vs []Value, want ...string) {
		t.Helper()
		if len(vs) != 3 {
			t.Fatalf("buffer-read returned %d entries, want 3", len(vs))
		}
		for i, w := range want {
			if w == "" {
				if vs[i] != nil {
					t.Fatalf("entry %d = %v, want nil", i, vs[i])
				}
			} else if vs[i] != w {
				t.Fatalf("entry %d = %v, want %v", i, vs[i], w)
			}
		}
	}
	v := mustApply(t, m, 0, OpBufferRead).([]Value)
	pad(v, "", "", "")
	mustApply(t, m, 0, OpBufferWrite, "a")
	v = mustApply(t, m, 0, OpBufferRead).([]Value)
	pad(v, "", "", "a")
	mustApply(t, m, 0, OpBufferWrite, "b")
	mustApply(t, m, 0, OpBufferWrite, "c")
	mustApply(t, m, 0, OpBufferWrite, "d")
	v = mustApply(t, m, 0, OpBufferRead).([]Value)
	pad(v, "b", "c", "d")
	if m.BufferWrites(0) != 4 {
		t.Fatalf("BufferWrites = %d, want 4", m.BufferWrites(0))
	}
}

// TestBufferBlockWriteObliterates checks the key property behind the
// Section 6 lower bound: after l consecutive buffer-writes to a location,
// a buffer-read is independent of anything written before the block.
func TestBufferBlockWriteObliterates(t *testing.T) {
	l := 4
	fresh := New(SetBuffers(l), 1)
	dirty := New(SetBuffers(l), 1)
	for i := 0; i < 10; i++ {
		mustApply(t, dirty, 0, OpBufferWrite, i) // arbitrary history
	}
	for i := 0; i < l; i++ {
		blockVal := 100 + i
		mustApply(t, fresh, 0, OpBufferWrite, blockVal)
		mustApply(t, dirty, 0, OpBufferWrite, blockVal)
	}
	a := mustApply(t, fresh, 0, OpBufferRead).([]Value)
	b := mustApply(t, dirty, 0, OpBufferRead).([]Value)
	for i := range a {
		if !EqualValues(a[i], b[i]) {
			t.Fatalf("block write did not obliterate history: %v vs %v", a, b)
		}
	}
}

func TestHeterogeneousCapacities(t *testing.T) {
	m := New(SetBuffers(2), 2, WithCapacities([]int{1, 3}))
	for i := 0; i < 4; i++ {
		mustApply(t, m, 0, OpBufferWrite, i)
		mustApply(t, m, 1, OpBufferWrite, i)
	}
	v0 := mustApply(t, m, 0, OpBufferRead).([]Value)
	if len(v0) != 1 || v0[0] != 3 {
		t.Fatalf("capacity-1 location read %v, want [3]", v0)
	}
	v1 := mustApply(t, m, 1, OpBufferRead).([]Value)
	if len(v1) != 3 || v1[0] != 1 || v1[2] != 3 {
		t.Fatalf("capacity-3 location read %v, want [1 2 3]", v1)
	}
}

func TestMultiAssign(t *testing.T) {
	m := New(SetBuffersMultiAssign(2), 3)
	err := m.MultiAssign([]Assignment{
		{Loc: 0, Op: OpBufferWrite, Args: []Value{"x"}},
		{Loc: 2, Op: OpBufferWrite, Args: []Value{"y"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Steps; got != 1 {
		t.Fatalf("multiple assignment counted %d steps, want 1", got)
	}
	v := mustApply(t, m, 2, OpBufferRead).([]Value)
	if v[1] != "y" {
		t.Fatalf("loc 2 buffer = %v", v)
	}
}

func TestMultiAssignRejected(t *testing.T) {
	m := New(SetBuffers(2), 2) // no multi-assignment capability
	err := m.MultiAssign([]Assignment{{Loc: 0, Op: OpBufferWrite, Args: []Value{"x"}}})
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
	m2 := New(SetBuffersMultiAssign(2), 2)
	// Duplicate locations are rejected.
	err = m2.MultiAssign([]Assignment{
		{Loc: 0, Op: OpBufferWrite, Args: []Value{"x"}},
		{Loc: 0, Op: OpBufferWrite, Args: []Value{"y"}},
	})
	if !errors.Is(err, ErrBadOperand) {
		t.Fatalf("want ErrBadOperand for duplicate location, got %v", err)
	}
	// Non-write-class instructions are rejected.
	err = m2.MultiAssign([]Assignment{{Loc: 0, Op: OpBufferRead}})
	if !errors.Is(err, ErrBadOperand) {
		t.Fatalf("want ErrBadOperand for read in multi-assign, got %v", err)
	}
}

// TestMultiAssignAtomicOnError pins that a multiple assignment whose later
// write fails inside the instruction leaves the memory exactly as it was:
// the earlier writes are undone, and neither fingerprint nor any counter
// moves.
func TestMultiAssignAtomicOnError(t *testing.T) {
	set := NewInstrSet("t", OpRead, OpAdd, OpWrite).WithBuffers(2).WithChannelOps().WithMultiAssign()
	cases := []struct {
		name   string
		writes []Assignment
		want   error
	}{
		{"non-numeric add", []Assignment{
			{Loc: 0, Op: OpAdd, Args: []Value{Int(5)}},
			{Loc: 1, Op: OpAdd, Args: []Value{"x"}},
		}, ErrBadOperand},
		{"send on full channel", []Assignment{
			{Loc: 0, Op: OpWrite, Args: []Value{Int(9)}},
			{Loc: 1, Op: OpBufferWrite, Args: []Value{"b"}},
			{Loc: 2, Op: OpChanSend, Args: []Value{Int(3)}},
		}, ErrChanBlocked},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(set, 3, WithChannels([]ChannelSpec{{Loc: 2, Kind: ChanFIFO, Cap: 1}}))
			mustApply(t, m, 1, OpBufferWrite, "a")
			mustApply(t, m, 2, OpChanSend, Int(1)) // the channel is now full
			fp, fp128, steps := m.Fingerprint(), m.Fingerprint128(), m.Stats().Steps
			if err := m.MultiAssign(tc.writes); !errors.Is(err, tc.want) {
				t.Fatalf("MultiAssign error = %v, want %v", err, tc.want)
			}
			if got := m.Fingerprint(); got != fp {
				t.Fatalf("contents moved: %q, want %q", got, fp)
			}
			if m.Fingerprint128() != fp128 {
				t.Fatal("rolling fingerprint moved on a failed multiple assignment")
			}
			if got := m.Stats().Steps; got != steps {
				t.Fatalf("steps = %d, want %d", got, steps)
			}
			wantInt(t, m.Peek(0), 0)
			if buf := m.PeekBuffer(1); len(buf) != 1 || buf[0] != "a" {
				t.Fatalf("buffer = %v, want [a]", buf)
			}
			// The memory still works from the restored state.
			mustApply(t, m, 0, OpAdd, Int(2))
			wantInt(t, m.Peek(0), 2)
			if m.Fingerprint128() != recomputedFingerprint128(m) {
				t.Fatal("rolling fingerprint diverged from a recompute after the restore")
			}
		})
	}
}

func TestStats(t *testing.T) {
	m := New(SetReadWrite, 3)
	mustApply(t, m, 0, OpWrite, Int(1))
	mustApply(t, m, 0, OpRead)
	mustApply(t, m, 2, OpWrite, Int(1<<20))
	st := m.Stats()
	if st.Steps != 3 {
		t.Fatalf("steps = %d, want 3", st.Steps)
	}
	if st.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2", st.Footprint())
	}
	if st.PerOp[OpWrite] != 2 || st.PerOp[OpRead] != 1 {
		t.Fatalf("per-op = %v", st.PerOp)
	}
	if st.MaxBits != 21 {
		t.Fatalf("max bits = %d, want 21", st.MaxBits)
	}
}

func TestNumericTypeErrors(t *testing.T) {
	m := New(NewInstrSet("t", OpWrite, OpAdd), 1)
	mustApply(t, m, 0, OpWrite, "not a number")
	if _, err := m.Apply(0, OpAdd, Int(1)); !errors.Is(err, ErrBadOperand) {
		t.Fatalf("want ErrBadOperand, got %v", err)
	}
}

func TestReadIsolation(t *testing.T) {
	// Mutating the result of a read must not corrupt memory.
	m := New(NewInstrSet("t", OpRead, OpAdd), 1)
	mustApply(t, m, 0, OpAdd, Int(5))
	v := MustInt(mustApply(t, m, 0, OpRead))
	v.SetInt64(999)
	wantInt(t, mustApply(t, m, 0, OpRead), 5)
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := New(SetReadWrite, 2)
	b := New(SetReadWrite, 2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical memories should have equal fingerprints")
	}
	mustApply(t, a, 1, OpWrite, Int(3))
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different memories should have different fingerprints")
	}
}

// TestCloneIndependence: a clone shares no mutable state with the original —
// plain values (including promoted big.Ints), buffers, and stats all
// diverge independently after mutation.
func TestCloneIndependence(t *testing.T) {
	m := New(NewInstrSet("t", OpRead, OpAdd, OpMultiply, OpBufferRead, OpBufferWrite).WithBuffers(2), 3)
	mustApply(t, m, 0, OpAdd, Int(7))
	// Push location 1 beyond int64 so it holds a *big.Int.
	huge := new(big.Int).Lsh(Int(1), 100)
	mustApply(t, m, 1, OpAdd, huge)
	mustApply(t, m, 2, OpBufferWrite, Int(5))

	c := m.Clone()
	if m.Fingerprint() != c.Fingerprint() || m.Fingerprint64() != c.Fingerprint64() {
		t.Fatal("clone fingerprints differ from original")
	}
	// Mutate the original: the clone must not move.
	mustApply(t, m, 0, OpAdd, Int(1))
	mustApply(t, m, 1, OpMultiply, Int(3))
	mustApply(t, m, 2, OpBufferWrite, Int(6))
	wantInt(t, mustApply(t, c, 0, OpRead), 7)
	if got := MustInt(mustApply(t, c, 1, OpRead)); got.Cmp(huge) != 0 {
		t.Fatalf("clone big value mutated: %v", got)
	}
	if buf := c.PeekBuffer(2); len(buf) != 1 {
		t.Fatalf("clone buffer mutated: %v", buf)
	}
	// And mutating the clone must not move the original.
	before := m.Fingerprint()
	mustApply(t, c, 0, OpAdd, Int(100))
	if m.Fingerprint() != before {
		t.Fatal("mutating the clone changed the original")
	}
	mustApply(t, m, 0, OpAdd, Int(1))
	if m.Stats().Steps == c.Stats().Steps {
		t.Fatal("stats shared between clone and original")
	}
}

// TestFingerprint64Canonical: the incremental fingerprint respects canonical
// value equality — word vs *big.Int representations, nil vs written zero —
// and distinguishes genuinely different states.
func TestFingerprint64Canonical(t *testing.T) {
	set := NewInstrSet("t", OpRead, OpWrite, OpAdd)
	// Same value via word and via big.Int representations.
	a, b := New(set, 2), New(set, 2)
	mustApply(t, a, 0, OpWrite, Word(42))
	mustApply(t, b, 0, OpWrite, Int(42))
	if a.Fingerprint64() != b.Fingerprint64() || a.Fingerprint() != b.Fingerprint() {
		t.Fatal("word and big.Int forms of 42 fingerprint differently")
	}
	// Writing an explicit 0 equals never touching the location.
	fresh := New(set, 2)
	mustApply(t, a, 0, OpWrite, Int(0))
	if a.Fingerprint64() != fresh.Fingerprint64() || a.Fingerprint() != fresh.Fingerprint() {
		t.Fatal("explicit zero differs from untouched location")
	}
	// An unbounded memory with the same contents matches a bounded one.
	u := New(set, 0, WithUnbounded())
	mustApply(t, u, 1, OpWrite, Int(9))
	bb := New(set, 2)
	mustApply(t, bb, 1, OpWrite, Word(9))
	if u.Fingerprint64() != bb.Fingerprint64() || u.Fingerprint() != bb.Fingerprint() {
		t.Fatal("unbounded and bounded memories with equal contents differ")
	}
	// Different values and different locations must not collide.
	x, y := New(set, 2), New(set, 2)
	mustApply(t, x, 0, OpWrite, Int(1))
	mustApply(t, y, 1, OpWrite, Int(1))
	if x.Fingerprint64() == y.Fingerprint64() {
		t.Fatal("same value at different locations collided")
	}
	mustApply(t, y, 0, OpWrite, Int(2))
	if x.Fingerprint64() == y.Fingerprint64() {
		t.Fatal("different states collided")
	}
}

// TestFingerprint64Incremental: the rolling fingerprint is path-independent —
// states reached by different instruction orders (including through big.Int
// promotion and back) fingerprint identically, and always match a fresh
// memory rebuilt in that state.
func TestFingerprint64Incremental(t *testing.T) {
	set := NewInstrSet("t", OpRead, OpAdd, OpBufferRead, OpBufferWrite).WithBuffers(2)
	a, b := New(set, 2), New(set, 2)
	mustApply(t, a, 0, OpAdd, Int(5))
	mustApply(t, a, 0, OpAdd, Int(3))
	mustApply(t, b, 0, OpAdd, Int(3))
	mustApply(t, b, 0, OpAdd, Int(5))
	if a.Fingerprint64() != b.Fingerprint64() {
		t.Fatal("commuting adds fingerprint differently")
	}
	// Through promotion and back: +2^100, -2^100 returns to the word state.
	huge := new(big.Int).Lsh(Int(1), 100)
	mustApply(t, a, 0, OpAdd, huge)
	mustApply(t, a, 0, OpAdd, new(big.Int).Neg(huge))
	if a.Fingerprint64() != b.Fingerprint64() {
		t.Fatal("promotion round-trip changed the fingerprint")
	}
	// Buffer writes: capacity-evicted buffers with equal final contents match.
	mustApply(t, a, 1, OpBufferWrite, Int(1))
	mustApply(t, a, 1, OpBufferWrite, Int(2))
	mustApply(t, a, 1, OpBufferWrite, Int(3))
	mustApply(t, b, 1, OpBufferWrite, Int(9))
	mustApply(t, b, 1, OpBufferWrite, Int(2))
	mustApply(t, b, 1, OpBufferWrite, Int(3))
	if a.Fingerprint64() != b.Fingerprint64() {
		t.Fatal("equal buffer contents fingerprint differently")
	}
	mustApply(t, b, 1, OpBufferWrite, Int(4))
	if a.Fingerprint64() == b.Fingerprint64() {
		t.Fatal("different buffers collided")
	}
}

func TestInstrSetNames(t *testing.T) {
	if got := SetReadWrite.Name(); got != "{read, write(x)}" {
		t.Fatalf("name = %q", got)
	}
	s := NewInstrSet("", OpRead, OpWrite)
	if got := s.Canonical(); got != "{read, write}" {
		t.Fatalf("canonical = %q", got)
	}
	if !SetBuffersMultiAssign(2).MultiAssign() {
		t.Fatal("multi-assign set should report MultiAssign")
	}
	if SetBuffers(3).BufferLen() != 3 {
		t.Fatal("buffer len")
	}
}

// probeEvery is the width rule Stats.record narrowed, kept as the oracle: it
// measures the touched location after every applied instruction, trivial
// or not, and carries its maximum across forks.
type probeEvery struct {
	m   *Memory
	max int
}

// apply applies one instruction and fails t unless the memory's MaxBits
// equals the oracle's.
func (p *probeEvery) apply(t *testing.T, loc int, op Op, args ...Value) {
	t.Helper()
	mustApply(t, p.m, loc, op, args...)
	p.max = max(p.max, valueBits(p.m.locs[loc].val))
	if got := p.m.Stats().MaxBits; got != p.max {
		t.Fatalf("after %v@%d: MaxBits %d, probing every step gives %d", op, loc, got, p.max)
	}
}

func (p *probeEvery) fork() *probeEvery {
	n := &Memory{}
	p.m.CloneInto(n)
	return &probeEvery{m: n, max: p.max}
}

// TestMaxBitsProbeRule checks that probing a location's width only after a
// non-trivial instruction or on its first touch gives the MaxBits that
// probing after every instruction does.
func TestMaxBitsProbeRule(t *testing.T) {
	huge := new(big.Int).Lsh(Int(1), 100)
	t.Run("initial-read-only", func(t *testing.T) {
		p := &probeEvery{m: New(SetReadWrite, 3, WithInitial(map[int]Value{1: Int(1 << 40), 2: huge}))}
		p.apply(t, 0, OpRead)
		p.apply(t, 1, OpRead)
		p.apply(t, 1, OpRead)
		p.apply(t, 2, OpRead)
		if p.max != 101 {
			t.Fatalf("oracle MaxBits %d, want 101", p.max)
		}
	})
	t.Run("wide-narrow-read", func(t *testing.T) {
		p := &probeEvery{m: New(SetReadWrite, 2)}
		p.apply(t, 0, OpWrite, Int(1<<50))
		p.apply(t, 0, OpWrite, Int(1))
		p.apply(t, 0, OpRead)
		p.apply(t, 1, OpWrite, huge)
		p.apply(t, 1, OpWrite, Int(0))
		p.apply(t, 1, OpRead)
		if p.max != 101 {
			t.Fatalf("oracle MaxBits %d, want 101", p.max)
		}
	})
	t.Run("unbounded-first-read", func(t *testing.T) {
		p := &probeEvery{m: New(SetReadWrite, 2, WithUnbounded(), WithInitial(map[int]Value{1: Int(1 << 30)}))}
		p.apply(t, 4, OpRead) // grows the memory: a fresh location reads 0
		p.apply(t, 1, OpRead)
		p.apply(t, 6, OpWrite, Int(1<<33))
		p.apply(t, 6, OpRead)
		p.apply(t, 4, OpRead)
		if p.max != 34 {
			t.Fatalf("oracle MaxBits %d, want 34", p.max)
		}
	})
	t.Run("fork-reads-parent-touch", func(t *testing.T) {
		p := &probeEvery{m: New(SetReadWrite, 3, WithInitial(map[int]Value{0: Int(1 << 20), 2: Int(1 << 12)}))}
		p.apply(t, 0, OpRead)
		p.apply(t, 1, OpWrite, Int(1<<45))
		p.apply(t, 1, OpWrite, Int(3))
		c := p.fork()
		c.apply(t, 0, OpRead)
		c.apply(t, 1, OpRead)
		c.apply(t, 2, OpRead) // first touched in the fork
		p.apply(t, 2, OpRead)
		if c.max != 46 {
			t.Fatalf("oracle MaxBits %d, want 46", c.max)
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		set := NewInstrSet("t", OpRead, OpWrite, OpAdd, OpMultiply, OpReadMax, OpWriteMax)
		vals := []Value{Int(0), Int(1), Int(-7), Int(1 << 9), Int(1 << 40), huge, new(big.Int).Neg(huge)}
		for trial := 0; trial < 200; trial++ {
			init := map[int]Value{}
			for loc := 0; loc < 4; loc++ {
				if rng.Intn(2) == 0 {
					init[loc] = vals[rng.Intn(len(vals))]
				}
			}
			mems := []*probeEvery{{m: New(set, 4, WithInitial(init))}}
			for op := 0; op < 40; op++ {
				p := mems[rng.Intn(len(mems))]
				if rng.Intn(8) == 0 && len(mems) < 4 {
					mems = append(mems, p.fork())
					continue
				}
				loc := rng.Intn(4)
				arg := vals[rng.Intn(len(vals))]
				switch rng.Intn(8) {
				case 0, 1, 2:
					p.apply(t, loc, OpRead)
				case 3:
					p.apply(t, loc, OpReadMax)
				case 4:
					p.apply(t, loc, OpWrite, arg)
				case 5:
					p.apply(t, loc, OpWriteMax, arg)
				case 6:
					p.apply(t, loc, OpAdd, arg)
				default:
					p.apply(t, loc, OpMultiply, arg)
				}
			}
		}
	})
}
