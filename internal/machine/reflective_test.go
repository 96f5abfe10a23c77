package machine_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestTableRowsNeverHashReflectively runs every shared-memory Table 1 row at
// n=3 and n=4 under random schedules, keying the configuration at every step
// (which hashes every stored payload and every result the processes
// consumed) and keying forks of it, and fails if any of those hashes fell
// back to formatting a payload.
func TestTableRowsNeverHashReflectively(t *testing.T) {
	const steps = 400
	for _, row := range core.Table(2) {
		if row.Build == nil || strings.HasPrefix(row.ID, "MP.") {
			continue
		}
		for _, n := range []int{3, 4} {
			pr := row.Build(n)
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = (i*5 + 1) % pr.Values
			}
			before := machine.ReflectiveHashes()
			sys, err := pr.NewSystem(inputs)
			if err != nil {
				t.Fatalf("%s n=%d: %v", row.ID, n, err)
			}
			sched := sim.NewRandom(int64(n))
			for i := 0; i < steps; i++ {
				pid := sched.Next(sys)
				if pid < 0 {
					break
				}
				if _, err := sys.Step(pid); err != nil {
					t.Fatalf("%s n=%d step %d: %v", row.ID, n, i, err)
				}
				sys.StateKey()
				sys.StateHash128()
				sys.AppendSymStateKey(nil, nil)
				if i%50 == 0 {
					fk, err := sys.Fork()
					if err != nil {
						t.Fatalf("%s n=%d: fork: %v", row.ID, n, err)
					}
					fk.StateKey()
					fk.Close()
				}
			}
			sys.Close()
			if got := machine.ReflectiveHashes() - before; got != 0 {
				t.Errorf("%s n=%d: %d hashes fell back to formatting a payload", row.ID, n, got)
			}
		}
	}
}
