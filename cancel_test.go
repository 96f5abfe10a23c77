package repro

// Cancellation of the long-running handle verbs: Verify, SolveBatch and
// the SolveSeq stream.

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestVerifyCancellation: cancelling a Verify mid-exploration returns
// ctx.Err() promptly on both the sequential and the parallel strategy.
func TestVerifyCancellation(t *testing.T) {
	inputs := []int{0, 1, 2, 3}
	p, err := Compile("T1.3", len(inputs)) // registers: huge interleaving tree
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 4} {
		var opts []VerifyOption
		if workers >= 0 {
			opts = append(opts, Workers(workers))
		}
		pre, preCancel := context.WithCancel(context.Background())
		preCancel()
		if _, err := p.Verify(pre, inputs, 40, opts...); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d pre-cancelled: want context.Canceled, got %v", workers, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		if _, err := p.Verify(ctx, inputs, 40, opts...); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("workers=%d: cancellation took %v", workers, elapsed)
		}
	}
}

// TestSolveBatchCancellation: a cancelled context fails every unfinished
// spec with ctx.Err() and the batch returns promptly.
func TestSolveBatchCancellation(t *testing.T) {
	inputs := []int{3, 1, 4, 1, 2}
	p, err := Compile("T1.9", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]RunSpec, 64)
	for i := range specs {
		specs[i] = RunSpec{Inputs: inputs, Seed: int64(i + 1)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	outs := p.SolveBatch(ctx, specs, Workers(4))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled batch took %v", elapsed)
	}
	for i, ro := range outs {
		if !errors.Is(ro.Err, context.Canceled) {
			t.Fatalf("spec %d: want context.Canceled, got %v", i, ro.Err)
		}
	}
}

// TestSolveSeqCancellation: a sweep stream observes cancellation between
// elements — the next yield carries ctx.Err() and the stream ends.
func TestSolveSeqCancellation(t *testing.T) {
	inputs := []int{3, 1, 4, 1, 2}
	p, err := Compile("T1.9", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]RunSpec, 8)
	for i := range specs {
		specs[i] = RunSpec{Inputs: inputs, Seed: int64(i + 1)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []RunResult
	for i, r := range p.SolveSeq(ctx, specs) {
		got = append(got, r)
		if i == 2 {
			cancel()
		}
	}
	if len(got) != 4 {
		t.Fatalf("stream yielded %d results, want 3 outcomes + 1 cancellation", len(got))
	}
	for i := 0; i < 3; i++ {
		if got[i].Err != nil {
			t.Fatalf("result %d errored before cancellation: %v", i, got[i].Err)
		}
	}
	if !errors.Is(got[3].Err, context.Canceled) {
		t.Fatalf("result 3: want context.Canceled, got %v", got[3].Err)
	}
}
