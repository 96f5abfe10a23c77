package repro

import (
	"context"
	"errors"
	"testing"
)

// FuzzCompile drives Compile with arbitrary (row, n, BufferCap, WithValues)
// tuples. Compile must either reject the tuple with ErrBadInput or
// ErrUnknownRow, or return a handle whose Solve (bounded by MaxSteps) and
// depth-2 Verify return without panicking; their errors are allowed. n,
// the buffer capacity and the value count are capped at 16 inside the
// target, keeping their sign, so that no input builds a huge system while
// the out-of-range cases (zero, negative) stay reachable.
func FuzzCompile(f *testing.F) {
	for _, r := range Hierarchy(defaultBufferCap) {
		for _, n := range []int{1, 3} {
			f.Add(r.ID, n, defaultBufferCap, 0, false)
		}
	}
	f.Fuzz(func(t *testing.T, row string, n, bufCap, values int, withValues bool) {
		n, bufCap, values = min(n, 16), min(bufCap, 16), min(values, 16)
		opts := []CompileOption{BufferCap(bufCap)}
		if withValues {
			opts = append(opts, WithValues(values))
		}
		p, err := Compile(row, n, opts...)
		if err != nil {
			if !errors.Is(err, ErrBadInput) && !errors.Is(err, ErrUnknownRow) {
				t.Fatalf("Compile(%q, %d, BufferCap(%d), values %d/%v): error %v wraps neither ErrBadInput nor ErrUnknownRow",
					row, n, bufCap, values, withValues, err)
			}
			return
		}
		inputs := make([]int, p.N())
		for i := range inputs {
			inputs[i] = i % p.Values()
		}
		ctx := context.Background()
		p.Solve(ctx, inputs, MaxSteps(20000))
		p.Verify(ctx, inputs, 2)
	})
}
