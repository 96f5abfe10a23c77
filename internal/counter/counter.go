// Package counter implements the m-component counter objects of Section 3 of
// the paper, which the racing-counters consensus algorithm (Lemmas 3.1/3.2)
// is built on, as forkable state machines (Machine). Each realizes the
// object out of a different instruction set, following Theorem 3.3 and its
// companions:
//
//   - AddMachine: one {read, add} (or {fetch-and-add}) location, component
//     v counted in the v'th base-3n digit; supports decrement, so it
//     implements the bounded counter of Lemma 3.2.
//   - MulMachine: one {read, multiply} (or {fetch-and-multiply}) location,
//     component v counted in the exponent of the (v+1)'st prime.
//   - SetBitMachine: one {read, set-bit} location, increments recorded in
//     per-(component, process) bit positions within consecutive blocks.
//   - IncMachine: m {read, increment} locations (Section 5).
//   - UnaryMachine: m runs of single-bit locations, a bounded counter
//     (Theorem 9.4).
//   - TracksMachine: unboundedly many binary {read, write(1)} (or
//     test-and-set) locations, one unbounded track per component
//     (Section 9).
//   - RegistersMachine: m components over an array of single-writer
//     registers (Sections 6 and 8 use this via buffers and swaps).
//
// A machine is local to one process: it holds the process-local bookkeeping
// the construction needs (for example, set-bit increment counts) and the
// progress of the operation in flight. internal/consensus's tests hold the
// same counters as coroutine code, the oracles every machine's instruction
// stream is pinned to.
package counter

import (
	"math/big"
	"math/bits"

	"repro/internal/machine"
)

// MultiplyInitial is the initial value a MulMachine's location requires.
func MultiplyInitial() machine.Value { return machine.Int(1) }

// decodeDigits decomposes the numeric value x into its len(out) least
// significant base-`base` digits, written into out and returned, on int64
// arithmetic while x fits a word (truncated division, as big.Int.QuoRem).
// AddMachine decodes its scans with it, into storage it owns.
func decodeDigits(out []int64, x machine.Value, base *big.Int) []int64 {
	if w, ok := machine.AsInt64(x); ok {
		b := base.Int64()
		for v := range out {
			out[v] = w % b
			w /= b
		}
		return out
	}
	xb := new(big.Int).Set(machine.MustInt(x))
	digit := new(big.Int)
	for v := range out {
		xb.QuoRem(xb, base, digit)
		out[v] = digit.Int64()
	}
	return out
}

// decodeFactors recovers per-component counts as prime multiplicities,
// written into out (one word per prime) and returned. It divides on int64
// arithmetic while x fits a word and falls back to big.Int only beyond it,
// as decodeDigits does. MulMachine decodes its scans with it.
func decodeFactors(out []int64, x machine.Value, prms []*big.Int) []int64 {
	clear(out)
	if w, ok := machine.AsInt64(x); ok {
		for v, q := range prms {
			for qw := q.Int64(); w%qw == 0; w /= qw {
				out[v]++
			}
		}
		return out
	}
	xb := new(big.Int).Set(machine.MustInt(x))
	for v, q := range prms {
		quo, rem := new(big.Int), new(big.Int)
		for {
			quo.QuoRem(xb, q, rem)
			if rem.Sign() != 0 {
				break
			}
			out[v]++
			xb.Set(quo)
		}
	}
	return out
}

// decodeBitBlocks counts the set bits of the numeric value x per component
// lane into out (one word per component) and returns it, walking a
// non-negative word's bits without a big.Int. SetBitMachine decodes its
// scans with it.
func decodeBitBlocks(out []int64, x machine.Value, n int) []int64 {
	clear(out)
	block := len(out) * n
	if w, ok := machine.AsInt64(x); ok && w >= 0 {
		for u := uint64(w); u != 0; u &= u - 1 {
			j := bits.TrailingZeros64(u)
			out[(j%block)/n]++
		}
		return out
	}
	xb := machine.MustInt(x)
	for j := 0; j < xb.BitLen(); j++ {
		if xb.Bit(j) == 1 {
			out[(j%block)/n]++
		}
	}
	return out
}
