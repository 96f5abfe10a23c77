package machine

import (
	"fmt"
	"math/big"
	"math/bits"
	"reflect"
	"strconv"
)

// Value is the contents of a memory location or the argument/result of an
// instruction. Numeric instructions accept *big.Int operands (and the
// memory's internal word-sized fast path); instructions such as write and
// swap accept arbitrary payloads, which lets algorithms store structured
// records (vectors, histories) exactly as the paper's constructions do.
type Value any

// word is the fast-path representation of a numeric value that fits in a
// machine word. The memory keeps location contents in this form whenever
// possible and only promotes to *big.Int on int64 overflow, so the hot
// instruction paths (increment, add, max-write, test-and-set, ...) allocate
// nothing. A word and a *big.Int of equal integer value are the same Value:
// EqualValues, AsInt, Fingerprint, and every instruction treat them
// identically.
type word int64

// Int converts a machine integer to a numeric Value. It is the canonical way
// for algorithms to build arguments for numeric instructions. The result is
// a *big.Int so callers can continue to use big arithmetic on it.
func Int(x int64) *big.Int { return big.NewInt(x) }

// Word converts a machine integer to a numeric Value in the allocation-free
// word representation. Prefer it over Int for instruction arguments in hot
// paths; the two representations are interchangeable.
func Word(x int64) Value { return word(x) }

// AsInt interprets a Value as an arbitrary-precision integer. A nil Value is
// interpreted as 0, matching the convention that all numeric locations start
// holding 0. It reports ok=false for non-numeric payloads.
func AsInt(v Value) (x *big.Int, ok bool) {
	switch t := v.(type) {
	case nil:
		return new(big.Int), true
	case word:
		return big.NewInt(int64(t)), true
	case *big.Int:
		return t, true
	default:
		return nil, false
	}
}

// AsInt64 interprets a Value as an int64 without allocating. It reports
// ok=false for non-numeric payloads and for numeric values outside the
// int64 range. A nil Value reads as 0.
func AsInt64(v Value) (x int64, ok bool) {
	switch t := v.(type) {
	case nil:
		return 0, true
	case word:
		return int64(t), true
	case *big.Int:
		if t.IsInt64() {
			return t.Int64(), true
		}
		return 0, false
	default:
		return 0, false
	}
}

// MustInt is AsInt for contexts where the value is known to be numeric;
// it panics with a descriptive error otherwise. Algorithm code uses it when
// reading locations that only numeric instructions ever touch.
func MustInt(v Value) *big.Int {
	x, ok := AsInt(v)
	if !ok {
		panic(fmt.Sprintf("machine: value %v (%T) is not numeric", v, v))
	}
	return x
}

// numeric reports whether v is one of the numeric representations (nil
// counts: it stands for 0).
func numeric(v Value) bool {
	switch v.(type) {
	case nil, word, *big.Int:
		return true
	default:
		return false
	}
}

// EqualValues reports whether two Values are equal. Numeric values compare
// by integer value regardless of representation (word, *big.Int, or nil
// standing for 0); other payloads compare structurally. It is the equality
// used by compare-and-swap and by tests.
func EqualValues(a, b Value) bool {
	if numeric(a) && numeric(b) {
		if aw, ok := asWord(a); ok {
			if bw, ok := asWord(b); ok {
				return aw == bw
			}
			return false // b overflows int64, a does not
		}
		if _, ok := asWord(b); ok {
			return false
		}
		ab, _ := a.(*big.Int)
		bb, _ := b.(*big.Int)
		return ab.Cmp(bb) == 0
	}
	if numeric(a) != numeric(b) {
		return false
	}
	return reflect.DeepEqual(a, b)
}

// asWord reports the int64 value of a numeric Value, with ok=false when the
// payload is non-numeric or does not fit a word. It is the entry to the
// memory's fast path.
func asWord(v Value) (int64, bool) {
	switch t := v.(type) {
	case nil:
		return 0, true
	case word:
		return int64(t), true
	case *big.Int:
		if t.IsInt64() {
			return t.Int64(), true
		}
		return 0, false
	default:
		return 0, false
	}
}

// normValue canonicalizes a numeric payload into the word representation
// when it fits, so that values written by algorithms as *big.Int and values
// produced by the fast path fingerprint and store identically. Non-numeric
// payloads pass through unchanged.
func normValue(v Value) Value {
	if x, ok := v.(*big.Int); ok && x.IsInt64() {
		return word(x.Int64())
	}
	return v
}

// cloneValue returns a defensive copy of v when v is a mutable numeric;
// words are immutable and structured payloads are treated as immutable by
// convention (algorithms never mutate a payload after writing it).
func cloneValue(v Value) Value {
	if x, ok := v.(*big.Int); ok {
		return new(big.Int).Set(x)
	}
	return v
}

// valueBits reports the bit-width of a numeric value, and 0 for non-numeric
// payloads. It feeds the value-width ablation (paper Section 10 asks how
// location size should enter a practical hierarchy).
func valueBits(v Value) int {
	switch x := v.(type) {
	case word:
		if x < 0 {
			// Match big.Int semantics: BitLen of the absolute value.
			// -x is safe except for MinInt64, whose magnitude is 2^63.
			if x == word(-1<<63) {
				return 64
			}
			return bits.Len64(uint64(-x))
		}
		return bits.Len64(uint64(x))
	case *big.Int:
		return x.BitLen()
	}
	return 0
}

// addOverflows reports whether a+b overflows int64.
func addOverflows(a, b int64) bool {
	s := a + b
	return (s > a) != (b > 0) && b != 0
}

// mulInt64 returns a*b and whether the product fits in int64.
func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	if (a == -1 && b == -1<<63) || (b == -1 && a == -1<<63) {
		return 0, false
	}
	if c/b != a {
		return 0, false
	}
	return c, true
}

func fingerprintValue(v Value) string {
	switch t := v.(type) {
	case nil:
		return "_"
	case word:
		return strconv.FormatInt(int64(t), 10)
	case *big.Int:
		return t.String()
	case fmt.Stringer:
		return t.String()
	default:
		return fmt.Sprintf("%v", t)
	}
}
