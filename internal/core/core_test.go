package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/consensus"
)

// TestSanityAllRows checks every row's internal consistency across n.
func TestSanityAllRows(t *testing.T) {
	for _, l := range []int{1, 2, 3} {
		for _, r := range Table(l) {
			for n := 2; n <= 10; n++ {
				if err := Sanity(r, n); err != nil {
					t.Errorf("%v", err)
				}
			}
		}
	}
}

// TestTableRowsForkNatively guards the Table 1 hot path: every
// row, in its standard and m-valued forms and at several buffer
// capacities, builds a system of forkable steppers — none runs on the
// coroutine Body adapter, which cannot fork. The message-passing
// companion row is held to the same rule.
func TestTableRowsForkNatively(t *testing.T) {
	for _, l := range []int{1, 2, 3} {
		for _, r := range Table(l) {
			if r.Build == nil {
				continue
			}
			for _, n := range []int{max(2, r.MinN), 4} {
				prs := []*consensus.Protocol{r.Build(n)}
				if r.BuildValues != nil {
					prs = append(prs, r.BuildValues(n, n+2))
				}
				for _, pr := range prs {
					inputs := make([]int, n)
					for i := range inputs {
						inputs[i] = (i * 2) % pr.Values
					}
					sys, err := pr.NewSystem(inputs)
					if err != nil {
						t.Fatal(err)
					}
					if !sys.ForksNatively() {
						t.Errorf("%s (l=%d, n=%d, values=%d) does not fork natively", r.ID, l, n, pr.Values)
					}
					sys.Close()
				}
			}
		}
	}
}

// TestBoundsMatchPaper spot-checks the bound formulas against hand-computed
// values from the paper.
func TestBoundsMatchPaper(t *testing.T) {
	cases := []struct {
		id     string
		l, n   int
		lo, up int
	}{
		{"T1.3", 1, 7, 7, 7},   // registers: n
		{"T1.5", 1, 7, 2, 6},   // swap: floor(sqrt 7)=2 (Ω(√n) representative), n-1
		{"T1.6", 2, 7, 3, 4},   // buffers: ceil(6/2)=3, ceil(7/2)=4
		{"T1.6", 3, 7, 2, 3},   // ceil(6/3)=2, ceil(7/3)=3
		{"T1.6", 3, 10, 3, 4},  // ceil(9/3)=3, ceil(10/3)=4
		{"T1.MA", 2, 9, 2, 5},  // ceil(8/4)=2, ceil(9/2)=5
		{"T1.9", 1, 100, 2, 2}, // max-registers
		{"T1.7", 1, 8, 2, 10},  // increment: 4*3-2=10
		{"T1.13", 1, 9, 1, 1},  // multiply
		{"T1.1", 1, 5, Unbounded, Unbounded},
	}
	for _, c := range cases {
		r, ok := RowByID(c.id, c.l)
		if !ok {
			t.Fatalf("row %s missing", c.id)
		}
		lo, up := SP(r, c.n)
		if lo != c.lo || up != c.up {
			t.Errorf("%s (l=%d, n=%d): bounds (%d,%d), want (%d,%d)",
				c.id, c.l, c.n, lo, up, c.lo, c.up)
		}
	}
}

// TestMeasureRowsSmall measures every constructive row at n=4 and validates
// footprints against the bounds.
func TestMeasureRowsSmall(t *testing.T) {
	for _, r := range Table(2) {
		if r.Build == nil {
			continue
		}
		m, err := MeasureRow(r, 4, 11, 10_000_000)
		if err != nil {
			t.Fatalf("row %s: %v", r.ID, err)
		}
		if err := m.Check(); err != nil {
			t.Error(err)
		}
		// Exact tight rows: the protocol should use exactly its declared
		// allocation under a fair random schedule.
		if !r.Upper.Asymptotic && m.DeclaredLocations > 0 && m.Footprint != m.DeclaredLocations {
			t.Errorf("row %s: footprint %d, declared %d", r.ID, m.Footprint, m.DeclaredLocations)
		}
	}
}

// TestRenderTable smoke-tests the harness output.
func TestRenderTable(t *testing.T) {
	out, err := RenderTable(context.Background(), 4, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T1.1", "T1.MA", "⌈n/l⌉", "∞", "{read, swap(x)}"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestLog2Ceil pins the round-count helper.
func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestMeasureSteps profiles every constructive row's step complexity and
// sanity-checks solo vs contended relations.
func TestMeasureSteps(t *testing.T) {
	for _, r := range Table(2) {
		if r.Build == nil {
			continue
		}
		p, err := MeasureSteps(context.Background(), r, 4, 10_000_000)
		if err != nil {
			t.Fatalf("row %s: %v", r.ID, err)
		}
		if !r.Quorum && p.Solo <= 0 {
			t.Errorf("row %s: non-positive solo steps", r.ID)
		}
		if r.Quorum && p.Solo != 0 {
			t.Errorf("row %s: quorum row reported solo steps %d", r.ID, p.Solo)
		}
		if p.ContendedTotal < p.Solo {
			// All four processes decide, so the total work is at least one
			// process's solo path.
			t.Errorf("row %s: contended %d below solo %d", r.ID, p.ContendedTotal, p.Solo)
		}
		if p.ContendedPerProc > p.ContendedTotal {
			t.Errorf("row %s: per-process above total", r.ID)
		}
	}
}

// TestRenderStepTable smoke-tests the companion table.
func TestRenderStepTable(t *testing.T) {
	out, err := RenderStepTable(context.Background(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "solo") || !strings.Contains(out, "T1.9") {
		t.Fatalf("table output:\n%s", out)
	}
}
