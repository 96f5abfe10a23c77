package repro

import (
	"errors"
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
	f.Fuzz(func(t *testing.T, s string) {
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
	})
}
