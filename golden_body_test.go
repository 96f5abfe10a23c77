package repro

// TestBodyRowsGolden pins the Solve outcomes and Verify reports of the rows
// that still run as coroutine Body adapters (T1.1, T1.3, T1.5, T1.6, T1.MA)
// to testdata/body_rows.golden. Their step path hashes replay logs, history
// payloads and double-collect versions; none of that may move a decision, a
// step count or a verdict. Regenerate deliberately with
//
//	go test -run TestBodyRowsGolden -update-body-golden .

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

func renderBodyGolden(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
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
				fmt.Fprintf(&b, "solve %s n=%d seed=%d inputs=%v: %+v\n", row, n, seed, in, *out)
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
				fmt.Fprintf(&b, "verify %s n=%d depth=%d solo=%d inputs=%v: %+v\n", row, n, depth, solo, in, *rep)
			}
		}
	}
	return b.String()
}

func TestBodyRowsGolden(t *testing.T) {
	got := renderBodyGolden(t)
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
