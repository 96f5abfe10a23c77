package consensus

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/primes"
	"repro/internal/sim"
)

// --- racing helpers ----------------------------------------------------------

func TestLeader(t *testing.T) {
	cases := []struct {
		s    []int64
		want int
	}{
		{[]int64{0, 0, 0}, 0}, // ties break to the smallest index
		{[]int64{1, 3, 3}, 1}, // first maximum
		{[]int64{5, 3, 9, 9}, 2},
		{[]int64{7}, 0},
	}
	for _, c := range cases {
		if got := leader(c.s); got != c.want {
			t.Errorf("leader(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestWinner(t *testing.T) {
	cases := []struct {
		s    []int64
		lead int64
		v    int
		ok   bool
	}{
		{[]int64{5, 0, 0}, 3, 0, true},
		{[]int64{5, 3, 0}, 3, 0, false}, // component 1 too close
		{[]int64{5, 2, 0}, 3, 0, true},
		{[]int64{0, 0}, 2, 0, false}, // tie: nobody leads
		{[]int64{0, 7}, 7, 1, true},
	}
	for _, c := range cases {
		v, ok := winner(c.s, c.lead)
		if ok != c.ok || (ok && v != c.v) {
			t.Errorf("winner(%v, %d) = (%d,%v), want (%d,%v)", c.s, c.lead, v, ok, c.v, c.ok)
		}
	}
}

// --- max-register pair encoding ------------------------------------------------

// TestPairEncodingRoundTrip: DecodePair inverts EncodePair for all pairs
// with x < n < y, and the encoding is order-isomorphic to the lexicographic
// order, which is what Theorem 4.2's correctness rests on.
func TestPairEncodingRoundTrip(t *testing.T) {
	f := func(rRaw uint8, xRaw uint8, nRaw uint8) bool {
		n := 2 + int(nRaw%30)
		y := primes.Next(int64(n))
		p := MaxRegPair{R: int64(rRaw % 12), X: int(xRaw) % n}
		got := DecodePair(EncodePair(p, y), y)
		return got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairEncodingOrder(t *testing.T) {
	n := 5
	y := primes.Next(int64(n))
	var prev *big.Int
	// Lexicographic enumeration must map to strictly increasing encodings.
	for r := int64(0); r < 4; r++ {
		for x := 0; x < n; x++ {
			e := EncodePair(MaxRegPair{R: r, X: x}, y)
			if prev != nil && e.Cmp(prev) <= 0 {
				t.Fatalf("(r=%d,x=%d) encoding %v not above predecessor %v", r, x, e, prev)
			}
			prev = e
		}
	}
}

// --- Lemma 5.2 codecs ----------------------------------------------------------

func TestMultiSlotCodec(t *testing.T) {
	mem := machine.New(machine.SetReadWrite, 1)
	sys := sim.NewSystem(mem, []int{0}, func(p *sim.Proc) int {
		s := MultiSlot{}
		if s.Size() != 1 {
			t.Errorf("size = %d", s.Size())
		}
		if _, ok := s.Recover(p, 0); ok {
			t.Error("recover on fresh slot should fail")
		}
		s.Record(p, 0, 0) // value 0 must be distinguishable from empty
		v, ok := s.Recover(p, 0)
		if !ok || v != 0 {
			t.Errorf("recover = (%d,%v), want (0,true)", v, ok)
		}
		s.Record(p, 0, 7)
		if v, _ := s.Recover(p, 0); v != 7 {
			t.Errorf("recover = %d, want 7", v)
		}
		return 0
	})
	defer sys.Close()
	if _, err := sys.Run(sim.Solo{PID: 0}, 10_000); err != nil {
		t.Fatal(err)
	}
}

func TestBitSlotCodec(t *testing.T) {
	for _, op := range []machine.Op{machine.OpWriteOne, machine.OpTestAndSet} {
		set := machine.NewInstrSet("t", machine.OpRead, op)
		mem := machine.New(set, 5)
		sys := sim.NewSystem(mem, []int{0}, func(p *sim.Proc) int {
			s := BitSlot{Values: 5, SetOne: op}
			if s.Size() != 5 {
				t.Errorf("size = %d", s.Size())
			}
			if _, ok := s.Recover(p, 0); ok {
				t.Error("recover on fresh slot should fail")
			}
			s.Record(p, 0, 3)
			v, ok := s.Recover(p, 0)
			if !ok || v != 3 {
				t.Errorf("recover = (%d,%v), want (3,true)", v, ok)
			}
			return 0
		})
		if _, err := sys.Run(sim.Solo{PID: 0}, 10_000); err != nil {
			t.Fatal(err)
		}
		sys.Close()
	}
}

func TestBitsForAndLocations(t *testing.T) {
	if got := bitsFor(2); got != 1 {
		t.Errorf("bitsFor(2) = %d", got)
	}
	if got := bitsFor(5); got != 3 {
		t.Errorf("bitsFor(5) = %d", got)
	}
	// (c+2)k - 2 with multi slots: c=2, n=8 -> k=3 -> 10.
	if got := lemma52Locations(8, 2, MultiSlot{}.Size()); got != 10 {
		t.Errorf("lemma52Locations(8,2,multi) = %d, want 10", got)
	}
	// Bit slots for n=4 (k=2, slot size 4, c=24): (2*4+24)*1 + 24 = 56.
	if got := lemma52Locations(4, 24, BitSlot{Values: 4}.Size()); got != 56 {
		t.Errorf("lemma52Locations(4,24,bits) = %d, want 56", got)
	}
}

// --- instruction-set declarations ----------------------------------------------

// TestProtocolSetsMatchPaper pins each protocol to the instruction set the
// paper's row names — guarding against accidental use of instructions
// outside the uniform set (the memory would reject them at run time, but
// the declaration is part of the claim).
func TestProtocolSetsMatchPaper(t *testing.T) {
	n := 4
	cases := []struct {
		pr   *Protocol
		want machine.InstrSet
	}{
		{Multiply(n), machine.SetReadMultiply},
		{Add(n), machine.SetReadAdd},
		{SetBit(n), machine.SetReadSetBit},
		{FetchAdd(n), machine.SetFAA},
		{FetchMultiply(n), machine.SetFetchMultiply},
		{MaxRegisters(n), machine.SetMaxRegister},
		{Registers(n), machine.SetReadWrite},
		{Swap(n), machine.SetReadSwap},
		{CAS(n), machine.SetCAS},
		{Increment(n), machine.SetReadWriteIncrement},
		{FetchIncrement(n), machine.SetReadWriteFAI},
		{WriteBits(n), machine.SetReadWrite01},
		{TASReset(n), machine.SetReadTASReset},
		{WriteOneTracks(n), machine.SetReadWrite1},
		{TASTracks(n), machine.SetReadTAS},
		{IntroFAA2TAS(n), machine.SetFAATAS},
		{IntroDecMul(n), machine.SetReadDecMul},
	}
	for _, c := range cases {
		if c.pr.Set.Name() != c.want.Name() {
			t.Errorf("%s declares %v, want %v", c.pr.Name, c.pr.Set, c.want)
		}
	}
	if got := Buffered(n, 3).Set.BufferLen(); got != 3 {
		t.Errorf("buffered protocol capacity %d, want 3", got)
	}
	if !BufferedMultiAssign(n, 2).Set.MultiAssign() {
		t.Error("multi-assign protocol lacks the capability")
	}
}
