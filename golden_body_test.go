package repro

// TestStepperRowsMatchBodyGolden pins the Solve outcomes and Verify verdicts
// of T1.1, T1.3, T1.5, T1.6 and T1.MA to testdata/body_rows.golden. The
// file's solve lines were rendered by the rows' Body forms, which live on as
// test oracles in internal/consensus: its TestBodyRowsGolden runs each Body
// against the row's steppers under every solve line's seed and requires the
// line's outcome, so the oracles, the steppers and the file agree. The
// verify lines were rendered by exploring the Body forms when the coroutine
// adapter could still fork; they are frozen records. Regenerate the solve
// lines deliberately, from the rows' steppers (the verify lines are copied
// over unchanged), with
//
//	go test -run TestStepperRowsMatchBodyGolden -update-body-golden .

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateBodyGolden = flag.Bool("update-body-golden", false, "rewrite testdata/body_rows.golden")

const bodyGoldenFile = "testdata/body_rows.golden"

var (
	bodyRows       = []string{"T1.1", "T1.3", "T1.5", "T1.6", "T1.MA"}
	bodyGoldenNs   = []int{3, 4, 8}
	bodyGoldenSeed = 12
	// bodyVerifyDepth bounds the n=3 explorations; at it each row explores
	// 600 to 1,700 states.
	bodyVerifyDepth = 10
	// The solo-probe explorations run every live process alone to a
	// decision from each configuration up to bodySoloDepth.
	bodySoloDepth  = 6
	bodySoloBudget = int64(400)
)

// bodyGoldenInputs derives a fixed input vector over p's value domain.
func bodyGoldenInputs(p *Protocol, variant int) []int {
	in := make([]int, p.N())
	for i := range in {
		in[i] = (variant*7 + i*3 + i*i) % p.Values()
	}
	return in
}

// bodyGoldenRun is one line of the golden file: a whole solve line, or the
// header of a verify line (its text before ": ") with the outcome of the
// Verify behind it.
type bodyGoldenRun struct {
	line   string
	verify bool
	rep    *VerifyReport
	err    error
}

func renderBodyGolden(t *testing.T) []bodyGoldenRun {
	t.Helper()
	ctx := context.Background()
	var runs []bodyGoldenRun
	for _, row := range bodyRows {
		for _, n := range bodyGoldenNs {
			p, err := Compile(row, n)
			if err != nil {
				t.Fatal(err)
			}
			for seed := 1; seed <= bodyGoldenSeed; seed++ {
				in := bodyGoldenInputs(p, seed%3)
				out, err := p.Solve(ctx, in, Seed(int64(seed)))
				if err != nil {
					t.Fatalf("%s n=%d seed %d: %v", row, n, seed, err)
				}
				runs = append(runs, bodyGoldenRun{line: fmt.Sprintf("solve %s n=%d seed=%d inputs=%v: %+v\n", row, n, seed, in, *out)})
			}
			if n != 3 {
				continue
			}
			in := bodyGoldenInputs(p, 1)
			for _, solo := range []int64{0, bodySoloBudget} {
				depth := bodyVerifyDepth
				if solo > 0 {
					depth = bodySoloDepth
				}
				rep, err := p.Verify(ctx, in, depth, SoloBudget(solo))
				runs = append(runs, bodyGoldenRun{
					line:   fmt.Sprintf("verify %s n=%d depth=%d solo=%d inputs=%v", row, n, depth, solo, in),
					verify: true, rep: rep, err: err,
				})
			}
		}
	}
	return runs
}

// readBodyGolden returns the golden file's lines, each with its newline.
func readBodyGolden(t *testing.T) []string {
	t.Helper()
	want, err := os.ReadFile(bodyGoldenFile)
	if err != nil {
		t.Fatalf("missing golden file %s: %v", bodyGoldenFile, err)
	}
	lines := strings.SplitAfter(string(want), "\n")
	return lines[:len(lines)-1]
}

// goldenLine returns golden line i after checking that it is the line run
// renders: an equal solve line, or a verify line with run's header.
func goldenLine(t *testing.T, golden []string, i int, run bodyGoldenRun) string {
	t.Helper()
	if run.verify && !strings.HasPrefix(golden[i], run.line+": ") {
		t.Fatalf("golden line %d is not %q:\n%s", i+1, run.line, golden[i])
	}
	return golden[i]
}

// verdictSpan is the "Violations:… DecidedValues:…" span of a rendered
// VerifyReport.
func verdictSpan(line string) string {
	i := strings.Index(line, "Violations:")
	j := strings.Index(line, " DistinctStates:")
	if i < 0 || j < i {
		return ""
	}
	return line[i:j]
}

// renderAgainstGolden renders the rows and reads the golden file, failing
// unless the two have one line per run.
func renderAgainstGolden(t *testing.T) ([]bodyGoldenRun, []string) {
	t.Helper()
	golden := readBodyGolden(t)
	runs := renderBodyGolden(t)
	if len(runs) != len(golden) {
		t.Fatalf("render has %d lines, %s has %d", len(runs), bodyGoldenFile, len(golden))
	}
	return runs, golden
}

// TestStepperRowsMatchBodyGolden: the handles of the five rows run their
// forkable steppers, and every Solve outcome must equal the Body form's
// golden line byte for byte. Verify must reach the same decided values and
// violations as the golden verify line; its state counts may differ,
// because stepper state keys are canonical where the Body adapter's folded
// its result log and the step count (so they are logged, not compared).
func TestStepperRowsMatchBodyGolden(t *testing.T) {
	runs, golden := renderAgainstGolden(t)
	if *updateBodyGolden {
		var b strings.Builder
		for i, r := range runs {
			if r.verify {
				b.WriteString(goldenLine(t, golden, i, r)) // a frozen record
			} else {
				b.WriteString(r.line)
			}
		}
		if err := os.WriteFile(bodyGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for i, s := range runs {
		want := goldenLine(t, golden, i, s)
		if !s.verify {
			if s.line != want {
				t.Fatalf("stepper solve diverged from the Body form\nbody    %sstepper %s", want, s.line)
			}
			continue
		}
		if s.err != nil {
			t.Fatalf("%s: %v", s.line, s.err)
		}
		got := fmt.Sprintf("%+v", *s.rep)
		if verdictSpan(got) != verdictSpan(want) {
			t.Fatalf("stepper verdict diverged from the Body form\nbody    %sstepper %s: %s", want, s.line, got)
		}
		t.Logf("%sstepper runs %d states %d deduped %d distinct %d",
			want, s.rep.Runs, s.rep.States, s.rep.Deduped, s.rep.DistinctStates)
	}
}
