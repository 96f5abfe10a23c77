package repro

// The deprecated free functions are thin wrappers over compiled handles;
// this battery pins them byte-identical to the equivalent handle calls, so
// the legacy surface cannot drift while it remains.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestShimSolveMatchesHandle: for every constructive row, the deprecated
// Solve must return an Outcome identical to Compile + Protocol.Solve with
// the same seed, capacity, and budget.
func TestShimSolveMatchesHandle(t *testing.T) {
	inputs := []int{2, 0, 3, 1}
	for _, row := range Hierarchy(2) {
		if row.Build == nil {
			continue
		}
		for _, seed := range []int64{1, 7, 1234} {
			legacy, err := Solve(row.ID, inputs, WithSeed(seed), WithBufferCap(2))
			if err != nil {
				t.Fatalf("row %s seed %d: legacy: %v", row.ID, seed, err)
			}
			p, err := Compile(row.ID, len(inputs), BufferCap(2))
			if err != nil {
				t.Fatalf("row %s: compile: %v", row.ID, err)
			}
			handle, err := p.Solve(context.Background(), inputs, Seed(seed))
			if err != nil {
				t.Fatalf("row %s seed %d: handle: %v", row.ID, seed, err)
			}
			if *legacy != *handle {
				t.Fatalf("row %s seed %d: legacy %+v != handle %+v", row.ID, seed, *legacy, *handle)
			}
			// The handle's second run takes the fork-amortized path (for
			// forkable rows); it must not change the outcome either.
			again, err := p.Solve(context.Background(), inputs, Seed(seed))
			if err != nil {
				t.Fatalf("row %s seed %d: amortized: %v", row.ID, seed, err)
			}
			if *again != *handle {
				t.Fatalf("row %s seed %d: amortized %+v != fresh %+v", row.ID, seed, *again, *handle)
			}
		}
	}
}

// TestShimVerifyMatchesHandle pins the deprecated Verify (sequential and
// parallel) against Protocol.Verify. With several workers the Mem
// telemetry follows the goroutine schedule (VerifyReport.Mem), so it is
// compared only on one worker.
func TestShimVerifyMatchesHandle(t *testing.T) {
	inputs := []int{0, 1, 2}
	p, err := Compile("T1.10", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 1, 4} { // -1 marks "option absent"
		var legacyOpts []Option
		var handleOpts []VerifyOption
		if workers >= 0 {
			legacyOpts = append(legacyOpts, WithWorkers(workers))
			handleOpts = append(handleOpts, Workers(workers))
		}
		legacy, err := Verify("T1.10", inputs, 6, legacyOpts...)
		if err != nil {
			t.Fatal(err)
		}
		handle, err := p.Verify(context.Background(), inputs, 6, handleOpts...)
		if err != nil {
			t.Fatal(err)
		}
		if workers > 1 {
			legacy.Mem, handle.Mem = VerifyMemStats{}, VerifyMemStats{}
		}
		if !reflect.DeepEqual(legacy, handle) {
			t.Fatalf("workers=%d: legacy %+v != handle %+v", workers, legacy, handle)
		}
	}
}

// TestShimStepsAndBoundsMatchHandle pins Steps and SpaceBounds.
func TestShimStepsAndBoundsMatchHandle(t *testing.T) {
	for _, row := range Hierarchy(3) {
		p, err := Compile(row.ID, 5, BufferCap(3))
		if err != nil {
			t.Fatalf("row %s: %v", row.ID, err)
		}
		lo, up, err := SpaceBounds(row.ID, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		hlo, hup := p.Bounds()
		if lo != hlo || up != hup {
			t.Fatalf("row %s: legacy bounds (%d,%d), handle (%d,%d)", row.ID, lo, up, hlo, hup)
		}
	}
	legacy, err := Steps("T1.9", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile("T1.9", 4, BufferCap(1))
	if err != nil {
		t.Fatal(err)
	}
	handle, err := p.Steps(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, handle) {
		t.Fatalf("legacy profile %+v != handle %+v", legacy, handle)
	}
}

// TestShimSolveBatchMatchesHandle: a mixed legacy batch must agree with
// per-handle SolveBatch sweeps, and with serial handle Solve calls.
func TestShimSolveBatchMatchesHandle(t *testing.T) {
	inputs := []int{3, 1, 4, 1, 2}
	var legacySpecs []BatchSpec
	var runSpecs []RunSpec
	for seed := int64(1); seed <= 12; seed++ {
		legacySpecs = append(legacySpecs, BatchSpec{Row: "T1.9", Inputs: inputs, Seed: seed})
		runSpecs = append(runSpecs, RunSpec{Inputs: inputs, Seed: seed})
	}
	legacy := SolveBatch(legacySpecs, 3)
	p, err := Compile("T1.9", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	handle := p.SolveBatch(context.Background(), runSpecs, Workers(3))
	if len(legacy) != len(handle) {
		t.Fatalf("length mismatch %d vs %d", len(legacy), len(handle))
	}
	for i := range legacy {
		if legacy[i].Err != nil || handle[i].Err != nil {
			t.Fatalf("spec %d errored: %v / %v", i, legacy[i].Err, handle[i].Err)
		}
		if *legacy[i].Outcome != *handle[i].Outcome {
			t.Fatalf("spec %d: legacy %+v != handle %+v", i, *legacy[i].Outcome, *handle[i].Outcome)
		}
		serial, err := p.Solve(context.Background(), inputs, Seed(runSpecs[i].Seed))
		if err != nil {
			t.Fatal(err)
		}
		if *serial != *handle[i].Outcome {
			t.Fatalf("spec %d: serial %+v != batch %+v", i, *serial, *handle[i].Outcome)
		}
	}
}

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
