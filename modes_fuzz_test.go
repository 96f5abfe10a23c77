package repro

import (
	"errors"
	"math/rand"
	"testing"
)

// FuzzParseModes feeds arbitrary strings to the table- and delivery-mode
// parsers behind the CLI flags and the service's JSON fields. Neither may
// panic; a string either parses to the mode that spells it exactly
// (m.String() == s) or is rejected with an error wrapping ErrBadInput.
func FuzzParseModes(f *testing.F) {
	for _, s := range []string{"exact", "compact", "compact128", "bitstate",
		"ordered", "reorder", "lossy", "invalid", "", "Exact", "compact ", "fifo"} {
		f.Add(s)
	}
	f.Fuzz(checkParseModes)
}

func checkParseModes(t *testing.T, s string) {
	if m, err := ParseTableMode(s); err == nil {
		if m.String() != s {
			t.Fatalf("ParseTableMode(%q) = %v, which spells %q", s, m, m.String())
		}
	} else if !errors.Is(err, ErrBadInput) {
		t.Fatalf("ParseTableMode(%q): error %v does not wrap ErrBadInput", s, err)
	}
	if m, err := ParseDeliveryMode(s); err == nil {
		if m.String() != s {
			t.Fatalf("ParseDeliveryMode(%q) = %v, which spells %q", s, m, m.String())
		}
	} else if !errors.Is(err, ErrBadInput) {
		t.Fatalf("ParseDeliveryMode(%q): error %v does not wrap ErrBadInput", s, err)
	}
}

// modeSpellings are the valid mode strings the random drivers mutate.
var modeSpellings = []string{"exact", "compact", "compact128", "bitstate", "ordered", "reorder", "lossy"}

// TestParseModesRandom runs FuzzParseModes' body over a fixed-seed stream
// of strings: valid spellings, each mutated by a few random byte edits
// (case flips, insertions, deletions, replacements) or left intact, and
// random byte strings.
func TestParseModesRandom(t *testing.T) {
	const inputs = 200000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < inputs; i++ {
		var s string
		if rng.Intn(4) == 0 {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			s = string(b)
		} else {
			s = mutateString(rng, modeSpellings[rng.Intn(len(modeSpellings))])
		}
		checkRandomInput(t, i, func(t *testing.T) { checkParseModes(t, s) }, "%q", s)
	}
	t.Logf("%d inputs", inputs)
}

// mutateString applies up to three random byte edits to s.
func mutateString(rng *rand.Rand, s string) string {
	b := []byte(s)
	for k := rng.Intn(4); k > 0; k-- {
		i := rng.Intn(len(b) + 1)
		switch rng.Intn(4) {
		case 0: // insert
			b = append(b[:i], append([]byte{byte(rng.Intn(256))}, b[i:]...)...)
		case 1: // delete
			if i < len(b) {
				b = append(b[:i], b[i+1:]...)
			}
		case 2: // replace
			if i < len(b) {
				b[i] = byte(rng.Intn(256))
			}
		default: // flip case
			if i < len(b) {
				b[i] ^= 0x20
			}
		}
	}
	return string(b)
}

// checkRandomInput runs check on generated input i and, if it fails, logs
// the input, described by format and args, before the test stops.
func checkRandomInput(t *testing.T, i int, check func(*testing.T), format string, args ...any) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("failing input %d: "+format, append([]any{i}, args...)...)
		}
	}()
	check(t)
}
