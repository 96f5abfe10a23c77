package repro

// TestBodyRowsGolden pins the Solve outcomes and Verify reports of the Body
// forms of T1.1, T1.3, T1.5, T1.6 and T1.MA, run on the coroutine Body
// adapter, to testdata/body_rows.golden. The Body forms are the reference
// semantics of those rows: their step path hashes replay logs, history
// payloads and double-collect versions, and none of that may move a
// decision, a step count or a verdict. The rows' handles run forkable
// steppers; TestStepperRowsMatchBodyGolden pins those against the same
// file. Regenerate deliberately with
//
//	go test -run TestBodyRowsGolden -update-body-golden .

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/consensus"
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

// bodyGoldenRun is one line of the golden file, with the Verify report
// behind it (nil for solve lines).
type bodyGoldenRun struct {
	line string
	rep  *VerifyReport
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
				if err != nil {
					t.Fatalf("verify %s n=%d: %v", row, n, err)
				}
				rep.Mem = VerifyMemStats{} // diagnostic only, see VerifyReport.Mem
				runs = append(runs, bodyGoldenRun{
					line: fmt.Sprintf("verify %s n=%d depth=%d solo=%d inputs=%v: %+v\n", row, n, depth, solo, in, *rep),
					rep:  rep,
				})
			}
		}
	}
	return runs
}

func joinGolden(runs []bodyGoldenRun) string {
	var b strings.Builder
	for _, r := range runs {
		b.WriteString(r.line)
	}
	return b.String()
}

func TestBodyRowsGolden(t *testing.T) {
	got := joinGolden(renderBodyGolden(t, compileBody))
	if *updateBodyGolden {
		if err := os.WriteFile(bodyGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(bodyGoldenFile)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestBodyRowsGolden -update-body-golden .`): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Body-row outcomes changed\n--- %s\n+++ current\n%s", bodyGoldenFile, diffLines(string(want), got))
	}
}

// TestStepperRowsMatchBodyGolden: the handles of the five rows run their
// forkable steppers, and every Solve outcome must equal the Body form's
// golden line byte for byte. Verify must reach the same decided values and
// violations; its state counts may differ, because stepper state keys are
// canonical where the Body adapter's fold its result log and the step
// count (so they are logged, not compared).
func TestStepperRowsMatchBodyGolden(t *testing.T) {
	body := renderBodyGolden(t, compileBody)
	stepper := renderBodyGolden(t, func(row string, n int) (*Protocol, error) { return Compile(row, n) })
	for i, s := range stepper {
		b := body[i]
		if s.rep == nil {
			if s.line != b.line {
				t.Fatalf("stepper solve diverged from the Body form\nbody    %sstepper %s", b.line, s.line)
			}
			continue
		}
		if !slices.Equal(s.rep.DecidedValues, b.rep.DecidedValues) || !slices.Equal(s.rep.Violations, b.rep.Violations) {
			t.Fatalf("stepper verdict diverged from the Body form\nbody    %sstepper %s", b.line, s.line)
		}
		t.Logf("%s: runs %d->%d states %d->%d deduped %d->%d distinct %d->%d",
			strings.SplitN(b.line, ":", 2)[0], b.rep.Runs, s.rep.Runs, b.rep.States, s.rep.States,
			b.rep.Deduped, s.rep.Deduped, b.rep.DistinctStates, s.rep.DistinctStates)
	}
}
