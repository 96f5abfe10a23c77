package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestSolveMaxRegisters(t *testing.T) {
	inputs := []int{3, 1, 4, 1, 2}
	out, err := Solve("T1.9", inputs, WithSeed(7))
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

func TestSolveEveryConstructiveRow(t *testing.T) {
	inputs := []int{2, 0, 3, 1}
	for _, row := range Hierarchy(2) {
		if row.Build == nil {
			continue
		}
		out, err := Solve(row.ID, inputs, WithSeed(3), WithBufferCap(2))
		if err != nil {
			t.Fatalf("row %s: %v", row.ID, err)
		}
		if out.Value < 0 || out.Value > 3 {
			t.Fatalf("row %s: decided %d", row.ID, out.Value)
		}
	}
}

func TestSolveUnknownRow(t *testing.T) {
	if _, err := Solve("T9.99", []int{0, 1}); !errors.Is(err, ErrUnknownRow) {
		t.Fatalf("want ErrUnknownRow, got %v", err)
	}
}

func TestSpaceBounds(t *testing.T) {
	lo, up, err := SpaceBounds("T1.6", 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 3 || up != 4 {
		t.Fatalf("buffer bounds (%d,%d), want (3,4)", lo, up)
	}
	lo, up, err = SpaceBounds("T1.1", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo != Unbounded || up != Unbounded {
		t.Fatalf("TAS row bounds (%d,%d), want ∞", lo, up)
	}
	if _, _, err := SpaceBounds("nope", 5, 1); !errors.Is(err, ErrUnknownRow) {
		t.Fatal("unknown row accepted")
	}
}

func TestBufferCapacitySweep(t *testing.T) {
	inputs := []int{0, 1, 2, 3, 4, 5}
	for l := 1; l <= 4; l++ {
		out, err := Solve("T1.6", inputs, WithBufferCap(l))
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
	_, err := Solve("T1.9", []int{1, 0, 2}, WithMaxSteps(1))
	if !errors.Is(err, ErrNoDecision) {
		t.Fatalf("want ErrNoDecision, got %v", err)
	}
}

func TestSolveBatchMatchesSolve(t *testing.T) {
	inputs := []int{3, 1, 4, 1, 2}
	var specs []BatchSpec
	for seed := int64(1); seed <= 16; seed++ {
		specs = append(specs, BatchSpec{Row: "T1.9", Inputs: inputs, Seed: seed})
	}
	outs := SolveBatch(specs, 0)
	if len(outs) != len(specs) {
		t.Fatalf("got %d outcomes for %d specs", len(outs), len(specs))
	}
	for i, bo := range outs {
		if bo.Err != nil {
			t.Fatalf("spec %d: %v", i, bo.Err)
		}
		want, err := Solve("T1.9", inputs, WithSeed(specs[i].Seed))
		if err != nil {
			t.Fatal(err)
		}
		if *bo.Outcome != *want {
			t.Fatalf("seed %d: batch %+v != serial %+v", specs[i].Seed, *bo.Outcome, *want)
		}
	}
}

func TestSolveBatchMixedRows(t *testing.T) {
	specs := []BatchSpec{
		{Row: "T1.9", Inputs: []int{1, 0, 2}, Seed: 5},
		{Row: "T9.99", Inputs: []int{0, 1}, Seed: 1},            // unknown row
		{Row: "T1.10", Inputs: []int{2, 2, 1}, Seed: 9},         // CAS
		{Row: "T1.9", Inputs: []int{1, 0, 2}, MaxSteps: 1},      // budget exhausted
		{Row: "T1.6", Inputs: []int{0, 1, 2, 3}, Seed: 4, L: 2}, // buffers
	}
	outs := SolveBatch(specs, 2)
	if outs[0].Err != nil || outs[2].Err != nil || outs[4].Err != nil {
		t.Fatalf("healthy specs errored: %v / %v / %v", outs[0].Err, outs[2].Err, outs[4].Err)
	}
	if !errors.Is(outs[1].Err, ErrUnknownRow) {
		t.Fatalf("spec 1: want ErrUnknownRow, got %v", outs[1].Err)
	}
	if !errors.Is(outs[3].Err, ErrNoDecision) {
		t.Fatalf("spec 3: want ErrNoDecision, got %v", outs[3].Err)
	}
	if outs[4].Outcome.Footprint != 2 {
		t.Fatalf("l-buffer run footprint %d, want ceil(4/2)=2", outs[4].Outcome.Footprint)
	}
}

func TestSteps(t *testing.T) {
	p, err := Steps("T1.9", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Solo <= 0 || p.ContendedTotal < p.Solo {
		t.Fatalf("implausible profile %+v", p)
	}
	if _, err := Steps("nope", 4, 1); !errors.Is(err, ErrUnknownRow) {
		t.Fatal("unknown row accepted")
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
