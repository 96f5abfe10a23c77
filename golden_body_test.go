package repro

// TestBodyRowsGolden pins the Solve outcomes of the Body forms of T1.1,
// T1.3, T1.5, T1.6 and T1.MA, run on the coroutine Body adapter, to
// testdata/body_rows.golden. The Body forms are the reference semantics of
// those rows: their step path hashes history payloads and double-collect
// versions, and none of that may move a decision or a step count. The
// file's verify lines were rendered by exploring the Body forms when the
// adapter could still fork; it no longer can, so they are frozen records,
// and Verify on a Body form must fail with sim.ErrNotForkable. The rows'
// handles run forkable steppers; TestStepperRowsMatchBodyGolden pins their
// outcomes and verdicts against the same file. Regenerate the solve lines
// deliberately with (the verify lines are copied over unchanged)
//
//	go test -run TestBodyRowsGolden -update-body-golden .

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/sim"
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

// compileBody is Compile with the row's steppers cleared from every
// protocol the handle builds, so its runs take the coroutine Body adapter:
// the reference form the golden file pins.
func compileBody(row string, n int) (*Protocol, error) {
	p, err := Compile(row, n)
	if err != nil {
		return nil, err
	}
	build := p.build
	p.build = func() *consensus.Protocol {
		pr := build()
		pr.Steppers = nil
		return pr
	}
	p.pr = p.build()
	return p, nil
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

func renderBodyGolden(t *testing.T, compile func(row string, n int) (*Protocol, error)) []bodyGoldenRun {
	t.Helper()
	ctx := context.Background()
	var runs []bodyGoldenRun
	for _, row := range bodyRows {
		for _, n := range bodyGoldenNs {
			p, err := compile(row, n)
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

// renderAgainstGolden renders the rows with compile and reads the golden
// file, failing unless the two have one line per run.
func renderAgainstGolden(t *testing.T, compile func(row string, n int) (*Protocol, error)) ([]bodyGoldenRun, []string) {
	t.Helper()
	golden := readBodyGolden(t)
	runs := renderBodyGolden(t, compile)
	if len(runs) != len(golden) {
		t.Fatalf("render has %d lines, %s has %d", len(runs), bodyGoldenFile, len(golden))
	}
	return runs, golden
}

func TestBodyRowsGolden(t *testing.T) {
	runs, golden := renderAgainstGolden(t, compileBody)
	var b strings.Builder
	for i, r := range runs {
		if !r.verify {
			b.WriteString(r.line)
			continue
		}
		if !errors.Is(r.err, sim.ErrNotForkable) {
			t.Fatalf("%s on the Body form: err = %v, want sim.ErrNotForkable", r.line, r.err)
		}
		b.WriteString(goldenLine(t, golden, i, r)) // a frozen record
	}
	got := b.String()
	if *updateBodyGolden {
		if err := os.WriteFile(bodyGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := strings.Join(golden, ""); got != want {
		t.Fatalf("Body-row outcomes changed\n--- %s\n+++ current\n%s", bodyGoldenFile, diffLines(want, got))
	}
}

// TestStepperRowsMatchBodyGolden: the handles of the five rows run their
// forkable steppers, and every Solve outcome must equal the Body form's
// golden line byte for byte. Verify must reach the same decided values and
// violations as the golden verify line; its state counts may differ,
// because stepper state keys are canonical where the Body adapter's folded
// its result log and the step count (so they are logged, not compared).
func TestStepperRowsMatchBodyGolden(t *testing.T) {
	runs, golden := renderAgainstGolden(t, func(row string, n int) (*Protocol, error) { return Compile(row, n) })
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
