package consensus

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// bodyGoldenFile is the repository's record of the seeded Solve outcomes of
// the rows T1.1, T1.3, T1.5, T1.6 and T1.MA. The root package's
// TestStepperRowsMatchBodyGolden pins the rows' handles to it.
const bodyGoldenFile = "../../testdata/body_rows.golden"

// goldenRows builds each row of the golden file the way Compile does, the
// l-buffer rows at Compile's default capacity l = 2.
var goldenRows = map[string]func(n int) *Protocol{
	"T1.1":  TASTracks,
	"T1.3":  Registers,
	"T1.5":  Swap,
	"T1.6":  func(n int) *Protocol { return Buffered(n, 2) },
	"T1.MA": func(n int) *Protocol { return BufferedMultiAssign(n, 2) },
}

// solveStepBudget is Solve's default step budget.
const solveStepBudget = 50_000_000

// TestBodyRowsGolden runs every solve line of the golden file, "solve ROW
// n=N seed=S inputs=[...]: {Value:… Footprint:… Steps:… MaxBits:…}", as a
// differential: the row's Body oracle and its steppers run under
// sim.NewRandom(S), the scheduler Solve uses, and must produce identical
// traces, decisions and final memory (matchBody). The Body run's outcome
// must also be the line's, so the oracles still reproduce the file the
// steppers are pinned to.
func TestBodyRowsGolden(t *testing.T) {
	raw, err := os.ReadFile(bodyGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "solve ") {
			continue
		}
		head, want, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		run, inputs, ok := strings.Cut(head, " inputs=")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		var row string
		var n int
		var seed int64
		if _, err := fmt.Sscanf(run, "solve %s n=%d seed=%d", &row, &n, &seed); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		build, ok := goldenRows[row]
		if !ok {
			t.Fatalf("golden line %q: unknown row %s", line, row)
		}
		fields := strings.Fields(strings.Trim(inputs, "[]"))
		if len(fields) != n {
			t.Fatalf("golden line %q: %d inputs for n=%d", line, len(fields), n)
		}
		in := make([]int, n)
		for i, f := range fields {
			if _, err := fmt.Sscan(f, &in[i]); err != nil {
				t.Fatalf("golden line %q: input %q: %v", line, f, err)
			}
		}
		t.Run(fmt.Sprintf("%s/n=%d/seed=%d", row, n, seed), func(t *testing.T) {
			sys := matchBody(t, build(n), in, seed, solveStepBudget)
			defer sys.Close()
			res := sys.Result()
			if err := res.CheckConsensus(in); err != nil {
				t.Fatal(err)
			}
			v, _ := res.AgreedValue()
			st := sys.Mem().Stats()
			got := fmt.Sprintf("{Value:%d Footprint:%d Steps:%d MaxBits:%d}", v, st.Footprint(), st.Steps, st.MaxBits)
			if got != want {
				t.Fatalf("Body outcome %s, golden %s", got, want)
			}
		})
		lines++
	}
	if lines == 0 {
		t.Fatalf("no solve lines in %s", bodyGoldenFile)
	}
}
