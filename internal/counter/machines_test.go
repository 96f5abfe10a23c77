package counter

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/primes"
	"repro/internal/sim"
)

// TestDecodeWordAndBig checks the scan decoders against counts known by
// construction, on values that fit a word (the int64 path) and values
// beyond it (the big.Int fallback), each given as a word and as a *big.Int,
// and decoding into a reused, dirty buffer.
func TestDecodeWordAndBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m = 4
	ps := primes.First(m)
	prms := make([]*big.Int, m)
	for i, q := range ps {
		prms[i] = big.NewInt(q)
	}
	base := big.NewInt(3 * 5)
	forms := func(x *big.Int) []machine.Value {
		if x.IsInt64() {
			return []machine.Value{machine.Word(x.Int64()), new(big.Int).Set(x)}
		}
		return []machine.Value{x}
	}
	out := make([]int64, m)
	for trial := 0; trial < 2000; trial++ {
		limit := []int64{4, 40}[trial%2] // word-sized, then mostly beyond int64
		want := make([]int64, m)
		prod, sum, bits := big.NewInt(1), new(big.Int), new(big.Int)
		for v := range want {
			want[v] = rng.Int63n(limit)
			prod.Mul(prod, new(big.Int).Exp(prms[v], big.NewInt(want[v]), nil))
		}
		for v := m - 1; v >= 0; v-- {
			sum.Mul(sum, base).Add(sum, big.NewInt(want[v]%15))
		}
		for v := range want {
			for b := int64(0); b < want[v]; b++ {
				bits.SetBit(bits, int(b*m*3)+v*3+rng.Intn(3), 1)
			}
		}
		digits := make([]int64, m)
		for v := range want {
			digits[v] = want[v] % 15
		}
		for _, x := range forms(prod) {
			out[0] = 99
			if got := decodeFactors(out, x, prms); !slices.Equal(got, want) {
				t.Fatalf("decodeFactors(%v) = %v, want %v", x, got, want)
			}
		}
		for _, x := range forms(sum) {
			out[0] = 99
			if got := decodeDigits(out, x, base); !slices.Equal(got, digits) {
				t.Fatalf("decodeDigits(%v) = %v, want %v", x, got, digits)
			}
		}
		for _, x := range forms(bits) {
			out[0] = 99
			if got := decodeBitBlocks(out, x, 3); !slices.Equal(got, want) {
				t.Fatalf("decodeBitBlocks(%v) = %v, want %v", x, got, want)
			}
		}
	}
}

// drive runs one operation begun by start to completion in the instruction
// slot next, answering every read with read and every update with nil.
func drive(c Machine, start func(*sim.OpInfo), read machine.Value, next *sim.OpInfo) {
	start(next)
	for {
		var res machine.Value
		if next.Op == machine.OpRead || next.Op == machine.OpFetchAndAdd || next.Op == machine.OpFetchAndMultiply {
			res = read
		}
		if !c.Step(res, next) {
			return
		}
	}
}

// TestMachineStepAllocs checks that the counter machines whose state lives
// in storage they own allocate nothing to run an increment or a scan, the
// scan's decode included, nor to fork over a discarded machine of their
// type. SetBitMachine runs scans only: its StartInc builds the set-bit
// argument per increment.
func TestMachineStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		c        Machine
		read     int64 // every read's result: a scan's encoded counts
		scanOnly bool
	}{
		{"add", NewAddMachine(0, 3, 4, false), 1 + 2*12 + 3*144, false},
		{"fetch-add", NewAddMachine(0, 3, 4, true), 1 + 2*12 + 3*144, false},
		{"multiply", NewMulMachine(0, 3, false), 2 * 2 * 3 * 5 * 5 * 5, false},
		{"fetch-multiply", NewMulMachine(0, 3, true), 2 * 2 * 3 * 5 * 5 * 5, false},
		{"increment", NewIncMachineInto(nil, 0, 3, false), 300, false},
		{"fetch-increment", NewIncMachineInto(nil, 0, 3, true), 300, false},
		{"unary", NewUnaryMachineInto(nil, 0, 3, 20, false), 0, false},
		{"unary-tas", NewUnaryMachineInto(nil, 0, 3, 20, true), 0, false},
		{"set-bit", NewSetBitMachine(0, 3, 4, 1), 0b1011_0110_1101, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, read, next := tc.c, machine.Word(tc.read), new(sim.OpInfo)
			inc := func(next *sim.OpInfo) { c.StartInc(1, next) }
			if tc.scanOnly {
				inc = c.StartScan
			}
			drive(c, inc, read, next)
			drive(c, c.StartScan, read, next)
			if got := testing.AllocsPerRun(100, func() {
				drive(c, inc, read, next)
				drive(c, c.StartScan, read, next)
			}); got != 0 {
				t.Fatalf("an operation and a scan allocate %.1f times, want 0", got)
			}
			prev := c.ForkInto(nil)
			if got := testing.AllocsPerRun(100, func() { prev = c.ForkInto(prev) }); got != 0 {
				t.Fatalf("ForkInto over a discarded machine allocates %.1f times, want 0", got)
			}
		})
	}
}

// TestUnaryScanCounts checks a UnaryMachine scan's counts on components
// that are empty, partly set and full, with widths whose collects end
// inside a word, on a word boundary and across several words.
func TestUnaryScanCounts(t *testing.T) {
	for _, width := range []int{1, 5, 32, 64, 70} {
		want := []int64{0, 1, int64(width) / 2, int64(width)}
		c := NewUnaryMachineInto(nil, 10, len(want), width, false)
		var next sim.OpInfo
		c.StartScan(&next)
		for {
			i := next.Loc - 10
			res := machine.Word(0)
			if int64(i%width) < want[i/width] {
				res = machine.Word(1)
			}
			if !c.Step(res, &next) {
				break
			}
		}
		if got := c.Counts(); !slices.Equal(got, want) {
			t.Fatalf("width %d: scan counts %v, want %v", width, got, want)
		}
	}
}
