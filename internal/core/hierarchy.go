// Package core encodes the paper's primary contribution: the space
// hierarchy of Table 1. Every row carries the paper's lower and upper bound
// on SP(I, n) — the number of memory locations supporting instruction set I
// needed to solve obstruction-free n-consensus — together with the protocol
// that realizes the upper bound. The measurement harness runs each protocol
// and compares its measured footprint (distinct locations touched) against
// the declared and proven bounds; cmd/spacehier and the root-level
// benchmarks regenerate the table from it.
package core

import (
	"math"

	"repro/internal/consensus"
)

// Unbounded marks a bound that is not a finite function of n (the ∞ row).
const Unbounded = -1

// Bound is one side (lower or upper) of a row's space bound.
type Bound struct {
	// Formula is the paper's rendering, e.g. "⌈(n-1)/l⌉" or "O(log n)".
	Formula string
	// At evaluates the bound for given n (and the row's l); Unbounded for ∞,
	// 0 when the paper gives only an asymptotic form with an unspecified
	// constant.
	At func(n int) int
	// Asymptotic is true when At returns a representative value of an
	// asymptotic bound rather than an exact count.
	Asymptotic bool
}

// Row is one line of Table 1 (or a companion experiment).
type Row struct {
	// ID is the experiment identifier used across DESIGN.md and
	// EXPERIMENTS.md, e.g. "T1.6".
	ID string
	// Sets names the instruction set(s) the row classifies.
	Sets string
	// Lower and Upper are the paper's bounds on SP(I, n).
	Lower, Upper Bound
	// L is the buffer capacity for the l-buffer rows (0 elsewhere).
	L int
	// MinN and MaxN bound the process counts the row's protocol is built
	// for: MinN 0 means 1, MaxN 0 means no limit. Callers check them before
	// Build, which panics outside them.
	MinN, MaxN int
	// Build constructs the upper-bound protocol for n processes; nil for
	// rows whose upper bound is non-constructive in this codebase.
	Build func(n int) *consensus.Protocol
	// BuildValues constructs the row's m-valued form — n processes, inputs
	// in [0, m) — for the rows whose protocol is stated for arbitrary value
	// counts (the racing-counter constructions of Lemma 3.1); nil
	// elsewhere. BuildValues(n, n) and Build(n) agree.
	BuildValues func(n, m int) *consensus.Protocol
	// Quorum marks message-passing rows whose protocol gathers quorums: a
	// process running alone can never decide (solo step complexity does not
	// apply), and liveness holds only up to the protocol's silence budget.
	Quorum bool
	// Notes carries provenance (theorem numbers, caveats).
	Notes string
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func log2Ceil(n int) int {
	k := 1
	for (1 << k) < n {
		k++
	}
	return k
}

// Table returns the full hierarchy with buffer capacity l for the l-buffer
// rows (l >= 1).
func Table(l int) []Row {
	exact := func(formula string, f func(n int) int) Bound {
		return Bound{Formula: formula, At: f}
	}
	asym := func(formula string, f func(n int) int) Bound {
		return Bound{Formula: formula, At: f, Asymptotic: true}
	}
	one := exact("1", func(int) int { return 1 })
	return []Row{
		{
			ID:    "T1.1",
			Sets:  "{read, test-and-set}, {read, write(1)}",
			Lower: exact("∞", func(int) int { return Unbounded }),
			Upper: exact("∞", func(int) int { return Unbounded }),
			Build: consensus.TASTracks,
			Notes: "Theorems 9.2/9.3: no bounded number of locations suffices; unbounded tracks solve it",
		},
		{
			ID:    "T1.2",
			Sets:  "{read, write(1), write(0)}",
			Lower: exact("n", func(n int) int { return n }),
			Upper: asym("O(n log n)", func(n int) int { return consensus.WriteBits(n).Locations }),
			Build: consensus.WriteBits,
			Notes: "Theorem 9.4 upper bound; n lower bound from [EGZ18] as cited",
		},
		{
			ID:          "T1.3",
			Sets:        "{read, write(x)}",
			Lower:       exact("n", func(n int) int { return n }),
			Upper:       exact("n", func(n int) int { return n }),
			Build:       consensus.Registers,
			BuildValues: consensus.RegistersValues,
			Notes:       "racing counters over n single-writer registers; tight by [EGZ18]",
		},
		{
			ID:    "T1.4",
			Sets:  "{read, test-and-set, reset}",
			Lower: asym("Ω(√n)", func(n int) int { return int(math.Sqrt(float64(n))) }),
			Upper: asym("O(n log n)", func(n int) int { return consensus.TASReset(n).Locations }),
			Build: consensus.TASReset,
			Notes: "lower bound from [FHS98]; upper bound Theorem 9.4",
		},
		{
			ID:    "T1.5",
			Sets:  "{read, swap(x)}",
			Lower: asym("Ω(√n)", func(n int) int { return int(math.Sqrt(float64(n))) }),
			Upper: exact("n-1", func(n int) int { return n - 1 }),
			MinN:  2,
			Build: consensus.Swap,
			Notes: "Algorithm 1 / Theorem 8.8 (anonymous); lower bound from [FHS98]",
		},
		{
			ID:          "T1.6",
			Sets:        "{l-buffer-read, l-buffer-write}",
			L:           l,
			Lower:       exact("⌈(n-1)/l⌉", func(n int) int { return ceilDiv(n-1, l) }),
			Upper:       exact("⌈n/l⌉", func(n int) int { return ceilDiv(n, l) }),
			Build:       func(n int) *consensus.Protocol { return consensus.Buffered(n, l) },
			BuildValues: func(n, m int) *consensus.Protocol { return consensus.BufferedValues(n, l, m) },
			Notes:       "Theorems 6.3/6.8; tight unless l divides n-1",
		},
		{
			ID:    "T1.7",
			Sets:  "{read, write(x), increment}",
			Lower: exact("2", func(int) int { return 2 }),
			Upper: asym("O(log n)", func(n int) int { return consensus.Increment(n).Locations }),
			Build: consensus.Increment,
			Notes: "Theorems 5.1/5.3: 4⌈log2 n⌉-2 locations",
		},
		{
			ID:    "T1.8",
			Sets:  "{read, write(x), fetch-and-increment}",
			Lower: exact("2", func(int) int { return 2 }),
			Upper: asym("O(log n)", func(n int) int { return consensus.FetchIncrement(n).Locations }),
			Build: consensus.FetchIncrement,
			Notes: "same construction; Theorem 5.1 applies verbatim",
		},
		{
			ID:    "T1.9",
			Sets:  "{read-max, write-max(x)}",
			Lower: exact("2", func(int) int { return 2 }),
			Upper: exact("2", func(int) int { return 2 }),
			Build: consensus.MaxRegisters,
			Notes: "Theorems 4.1/4.2",
		},
		{
			ID:    "T1.10",
			Sets:  "{compare-and-swap(x,y)}",
			Lower: one,
			Upper: one,
			Build: consensus.CAS,
			Notes: "single location; wait-free",
		},
		{
			ID:          "T1.11",
			Sets:        "{read, set-bit(x)}",
			Lower:       one,
			Upper:       one,
			Build:       consensus.SetBit,
			BuildValues: consensus.SetBitValues,
			Notes:       "Theorem 3.3, bit-block unbounded counter",
		},
		{
			ID:          "T1.12",
			Sets:        "{read, add(x)}",
			Lower:       one,
			Upper:       one,
			Build:       consensus.Add,
			BuildValues: consensus.AddValues,
			Notes:       "Theorem 3.3, base-3n bounded counter (Lemma 3.2)",
		},
		{
			ID:          "T1.13",
			Sets:        "{read, multiply(x)}",
			Lower:       one,
			Upper:       one,
			Build:       consensus.Multiply,
			BuildValues: consensus.MultiplyValues,
			Notes:       "Theorem 3.3, prime-exponent unbounded counter",
		},
		{
			ID:    "T1.14",
			Sets:  "{fetch-and-add(x)}",
			Lower: one,
			Upper: one,
			Build: consensus.FetchAdd,
			Notes: "fetch-and-add(0) doubles as read",
		},
		{
			ID:    "T1.15",
			Sets:  "{fetch-and-multiply(x)}",
			Lower: one,
			Upper: one,
			Build: consensus.FetchMultiply,
			Notes: "fetch-and-multiply(1) doubles as read",
		},
		{
			ID:    "T1.MA",
			Sets:  "l-buffers + atomic multiple assignment",
			L:     l,
			Lower: exact("⌈(n-1)/2l⌉", func(n int) int { return ceilDiv(n-1, 2*l) }),
			Upper: exact("⌈n/l⌉", func(n int) int { return ceilDiv(n, l) }),
			Build: func(n int) *consensus.Protocol { return consensus.BufferedMultiAssign(n, l) },
			Notes: "Theorem 7.5 lower bound; upper bound inherited from Theorem 6.3",
		},
		{
			ID:     "MP.QSC",
			Sets:   "{send(m), recv, deliver, drop}",
			Lower:  exact("n", func(n int) int { return n }),
			Upper:  exact("n", func(n int) int { return n }),
			MaxN:   63,
			Build:  consensus.QSC,
			Quorum: true,
			Notes: "message-passing companion: threshold adopt-commit over n channel locations, " +
				"quorum t=⌊n/2⌋+1 tolerates f=n-t silent processes",
		},
	}
}

// RowByID finds a row in Table(l).
func RowByID(id string, l int) (Row, bool) {
	for _, r := range Table(l) {
		if r.ID == id {
			return r, true
		}
	}
	return Row{}, false
}

// SP reports the paper's bounds on SP(I, n) for a row.
func SP(r Row, n int) (lower, upper int) {
	return r.Lower.At(n), r.Upper.At(n)
}

// Log2Ceil is exported for harnesses reporting the Lemma 5.2 round count.
func Log2Ceil(n int) int { return log2Ceil(n) }
