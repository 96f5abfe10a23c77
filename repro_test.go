package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestSolveMaxRegisters(t *testing.T) {
	inputs := []int{3, 1, 4, 1, 2}
	p, err := Compile("T1.9", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Solve(context.Background(), inputs, Seed(7))
	if err != nil {
		t.Fatal(err)
	}
	valid := false
	for _, in := range inputs {
		if out.Value == in {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("decided %d, not an input", out.Value)
	}
	if out.Footprint != 2 {
		t.Fatalf("max-register consensus used %d locations, want 2", out.Footprint)
	}
	if out.Steps == 0 {
		t.Fatal("no steps recorded")
	}
}

// TestSolveEveryConstructiveRow: every constructive row decides an input,
// and a handle's second run, which takes the fork-amortized path on the
// forkable rows, repeats its first, freshly constructed run exactly.
func TestSolveEveryConstructiveRow(t *testing.T) {
	inputs := []int{2, 0, 3, 1}
	for _, row := range Hierarchy(2) {
		if row.Build == nil {
			continue
		}
		for _, seed := range []int64{3, 1234} {
			p, err := Compile(row.ID, len(inputs), BufferCap(2))
			if err != nil {
				t.Fatalf("row %s: %v", row.ID, err)
			}
			fresh, err := p.Solve(context.Background(), inputs, Seed(seed))
			if err != nil {
				t.Fatalf("row %s seed %d: %v", row.ID, seed, err)
			}
			if fresh.Value < 0 || fresh.Value > 3 {
				t.Fatalf("row %s seed %d: decided %d", row.ID, seed, fresh.Value)
			}
			again, err := p.Solve(context.Background(), inputs, Seed(seed))
			if err != nil {
				t.Fatalf("row %s seed %d: amortized: %v", row.ID, seed, err)
			}
			if *again != *fresh {
				t.Fatalf("row %s seed %d: amortized %+v != fresh %+v", row.ID, seed, *again, *fresh)
			}
		}
	}
}

func TestSolveUnknownRow(t *testing.T) {
	if _, err := Compile("T9.99", 2); !errors.Is(err, ErrUnknownRow) {
		t.Fatalf("want ErrUnknownRow, got %v", err)
	}
}

func TestSpaceBounds(t *testing.T) {
	bounds := func(row string, n, l int) (lo, up int) {
		t.Helper()
		p, err := Compile(row, n, BufferCap(l))
		if err != nil {
			t.Fatal(err)
		}
		return p.Bounds()
	}
	if lo, up := bounds("T1.6", 7, 2); lo != 3 || up != 4 {
		t.Fatalf("buffer bounds (%d,%d), want (3,4)", lo, up)
	}
	if lo, up := bounds("T1.1", 5, 1); lo != Unbounded || up != Unbounded {
		t.Fatalf("TAS row bounds (%d,%d), want ∞", lo, up)
	}
	if _, err := Compile("nope", 5, BufferCap(1)); !errors.Is(err, ErrUnknownRow) {
		t.Fatal("unknown row accepted")
	}
}

func TestBufferCapacitySweep(t *testing.T) {
	inputs := []int{0, 1, 2, 3, 4, 5}
	for l := 1; l <= 4; l++ {
		p, err := Compile("T1.6", len(inputs), BufferCap(l))
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		out, err := p.Solve(context.Background(), inputs)
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		want := (len(inputs) + l - 1) / l
		if out.Footprint != want {
			t.Fatalf("l=%d: footprint %d, want ceil(n/l)=%d", l, out.Footprint, want)
		}
	}
}

func TestSolveNoDecisionSentinel(t *testing.T) {
	// Two max-registers need far more than one step to decide: the budget
	// exhausts and the typed sentinel must surface, unwrappable by callers.
	inputs := []int{1, 0, 2}
	p, err := Compile("T1.9", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Solve(context.Background(), inputs, MaxSteps(1))
	if !errors.Is(err, ErrNoDecision) {
		t.Fatalf("want ErrNoDecision, got %v", err)
	}
}

func TestSolveBatchMatchesSolve(t *testing.T) {
	inputs := []int{3, 1, 4, 1, 2}
	p, err := Compile("T1.9", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	var specs []RunSpec
	for seed := int64(1); seed <= 16; seed++ {
		specs = append(specs, RunSpec{Inputs: inputs, Seed: seed})
	}
	outs := p.SolveBatch(context.Background(), specs)
	if len(outs) != len(specs) {
		t.Fatalf("got %d outcomes for %d specs", len(outs), len(specs))
	}
	for i, ro := range outs {
		if ro.Err != nil {
			t.Fatalf("spec %d: %v", i, ro.Err)
		}
		want, err := p.Solve(context.Background(), inputs, Seed(specs[i].Seed))
		if err != nil {
			t.Fatal(err)
		}
		if *ro.Outcome != *want {
			t.Fatalf("seed %d: batch %+v != serial %+v", specs[i].Seed, *ro.Outcome, *want)
		}
	}
}

// TestSolveBatchMixedRows: one batch mixing a healthy spec, an exhausted
// budget and an out-of-range input fails only the bad specs, each with its
// own sentinel.
func TestSolveBatchMixedRows(t *testing.T) {
	p, err := Compile("T1.6", 4, BufferCap(2))
	if err != nil {
		t.Fatal(err)
	}
	specs := []RunSpec{
		{Inputs: []int{0, 1, 2, 3}, Seed: 4},
		{Inputs: []int{0, 1, 2, 3}, MaxSteps: 1}, // budget exhausted
		{Inputs: []int{0, 1, 9, 3}, Seed: 1},     // input out of range
	}
	outs := p.SolveBatch(context.Background(), specs, Workers(2))
	if outs[0].Err != nil {
		t.Fatalf("healthy spec errored: %v", outs[0].Err)
	}
	if outs[0].Outcome.Footprint != 2 {
		t.Fatalf("l-buffer run footprint %d, want ceil(4/2)=2", outs[0].Outcome.Footprint)
	}
	if !errors.Is(outs[1].Err, ErrNoDecision) {
		t.Fatalf("spec 1: want ErrNoDecision, got %v", outs[1].Err)
	}
	if !errors.Is(outs[2].Err, ErrBadInput) {
		t.Fatalf("spec 2: want ErrBadInput, got %v", outs[2].Err)
	}
}

func TestSteps(t *testing.T) {
	p, err := Compile("T1.9", 4, BufferCap(1))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.Steps(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Solo <= 0 || prof.ContendedTotal < prof.Solo {
		t.Fatalf("implausible profile %+v", prof)
	}
}

// TestVerifyWorkers: the whole VerifyReport, Mem aside, must not depend on
// the worker count — unset, 1, 2, or 4 — for an exact and a symmetric
// compacted exploration.
func TestVerifyWorkers(t *testing.T) {
	for _, tc := range []struct {
		row  string
		opts []VerifyOption
	}{
		{"T1.9", nil},
		{"T1.12", []VerifyOption{WithSymmetry(), WithTable(TableCompact)}},
	} {
		p, err := Compile(tc.row, 3)
		if err != nil {
			t.Fatal(err)
		}
		inputs := []int{2, 0, 1}
		want, err := p.Verify(context.Background(), inputs, 10, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		want.Mem = VerifyMemStats{}
		for _, w := range []int{1, 2, 4} {
			got, err := p.Verify(context.Background(), inputs, 10, append(tc.opts, Workers(w))...)
			if err != nil {
				t.Fatal(err)
			}
			got.Mem = VerifyMemStats{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: report depends on the worker count:\nunset %+v\nthis  %+v", tc.row, w, want, got)
			}
		}
	}
}
