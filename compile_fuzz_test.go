package repro

import (
	"context"
	"errors"
	"math/rand"
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
	f.Fuzz(checkCompile)
}

func checkCompile(t *testing.T, row string, n, bufCap, values int, withValues bool) {
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
}

// TestCompileRandom runs FuzzCompile's body over a fixed-seed stream of
// tuples: a Table 1 row id (a quarter of them mutated by random byte
// edits), and n, buffer capacity and value count drawn from -2..12, so the
// zero and negative cases stay common.
func TestCompileRandom(t *testing.T) {
	const inputs = 6000
	var rows []string
	for _, r := range Hierarchy(defaultBufferCap) {
		rows = append(rows, r.ID)
	}
	rng := rand.New(rand.NewSource(1))
	small := func() int { return rng.Intn(15) - 2 }
	for i := 0; i < inputs; i++ {
		row := rows[rng.Intn(len(rows))]
		if rng.Intn(4) == 0 {
			row = mutateString(rng, row)
		}
		n, bufCap, values, withValues := small(), small(), small(), rng.Intn(2) == 1
		checkRandomInput(t, i, func(t *testing.T) { checkCompile(t, row, n, bufCap, values, withValues) },
			"row %q n %d bufCap %d values %d withValues %v", row, n, bufCap, values, withValues)
	}
	t.Logf("%d inputs", inputs)
}
