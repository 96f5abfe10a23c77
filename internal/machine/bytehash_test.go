package machine

import "testing"

// TestByteHash128 pins the byte-stream fingerprint's values — the symmetric
// explorer tables, and the verdicts cached from them, hold these
// fingerprints, so a change here must move the result cache's key
// generation — and checks that a stream absorbs the same bytes to the same
// fingerprint however they are split between Byte, Bytes and Uint64.
func TestByteHash128(t *testing.T) {
	for _, c := range []struct {
		in     string
		lo, hi uint64
	}{
		{"", 0xf52a15e9a9b5e89b, 0x9eb8c594b1c7af5b},
		{"s", 0xbdf18d3990fb6460, 0xb6be618b06edc475},
		{"sym\x00key\xff bytes", 0xa6a40be95585ed6e, 0xf6aadd6fe9bf69b6},
	} {
		if got := NewByteHash128().Bytes([]byte(c.in)).Sum(); got != (Hash128{Lo: c.lo, Hi: c.hi}) {
			t.Errorf("%q: %#x, want {%#x %#x}", c.in, got, c.lo, c.hi)
		}
	}
	in := []byte("s\x01\x02\x03\x04\x05\x06\x07\x08ltail")
	want := NewByteHash128().Bytes(in).Sum()
	w := uint64(0)
	for i := 8; i >= 1; i-- {
		w = w<<8 | uint64(in[i])
	}
	got := NewByteHash128().Byte(in[0]).Uint64(w).Bytes(in[9:11]).Bytes(nil).Bytes(in[11:]).Sum()
	if got != want {
		t.Fatalf("split stream %#x, whole stream %#x", got, want)
	}
}
