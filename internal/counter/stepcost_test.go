package counter

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/swreg"
)

// The constructions' step costs are part of their value: Theorem 3.3's
// counters pay exactly one atomic step per increment and one per scan
// (single-location atomic snapshots), while the register-based counters pay
// collects. These tests pin those costs, feeding the step-complexity axis
// of Section 10.

func stepsOf(t *testing.T, mem *machine.Memory, body sim.Body) int64 {
	t.Helper()
	sys := sim.NewSystem(mem, []int{0}, body)
	defer sys.Close()
	if _, err := sys.Run(sim.Solo{PID: 0}, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if sys.Err() != nil {
		t.Fatal(sys.Err())
	}
	return sys.Steps()
}

func TestSingleLocationCountersCostOneStepPerOp(t *testing.T) {
	cases := []struct {
		name  string
		mem   func() *machine.Memory
		build func(p *sim.Proc) Counter
	}{
		{
			"multiply",
			func() *machine.Memory {
				return machine.New(machine.SetReadMultiply, 1,
					machine.WithInitial(map[int]machine.Value{0: MultiplyInitial()}))
			},
			func(p *sim.Proc) Counter { return driveOn(p, NewMulMachine(0, 3, false)) },
		},
		{
			"add",
			func() *machine.Memory { return machine.New(machine.SetReadAdd, 1) },
			func(p *sim.Proc) Counter { return driveOn(p, NewAddMachine(0, 3, 4, false)) },
		},
		{
			"set-bit",
			func() *machine.Memory { return machine.New(machine.SetReadSetBit, 1) },
			func(p *sim.Proc) Counter { return driveOn(p, NewSetBitMachine(0, 3, p.N(), p.ID())) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := stepsOf(t, c.mem(), func(p *sim.Proc) int {
				ctr := c.build(p)
				for i := 0; i < 5; i++ {
					ctr.Inc(i % 3)
				}
				for i := 0; i < 4; i++ {
					ctr.Scan()
				}
				return 0
			})
			// 5 increments + 4 scans, one atomic step each.
			if got != 9 {
				t.Fatalf("steps = %d, want 9 (1 per op)", got)
			}
		})
	}
}

func TestIncrementCounterScanCost(t *testing.T) {
	// m locations; a quiescent solo double collect costs exactly 2m reads.
	m := 3
	got := stepsOf(t, machine.New(machine.SetReadWriteIncrement, m), func(p *sim.Proc) int {
		c := driveOn(p, NewIncMachineInto(nil, 0, m, false))
		c.Inc(1) // 1 step
		c.Scan() // 2m steps solo (two identical collects)
		return 0
	})
	if got != int64(1+2*m) {
		t.Fatalf("steps = %d, want %d", got, 1+2*m)
	}
}

func TestRegistersCounterCosts(t *testing.T) {
	// Inc = 1 write; solo Scan = 2n reads (double collect over n registers).
	n := 4
	mem := machine.New(machine.SetReadWrite, n)
	sys := sim.NewSystem(mem, make([]int, n), func(p *sim.Proc) int {
		if p.ID() != 0 {
			return 0
		}
		c := driveOn(p, NewRegistersMachine(swreg.NewDirectMachine(0, n, p.ID()), 2))
		c.Inc(0)
		c.Scan()
		return 0
	})
	defer sys.Close()
	if _, err := sys.Run(sim.Solo{PID: 0}, 100_000); err != nil {
		t.Fatal(err)
	}
	if got := sys.Steps(); got != int64(1+2*n) {
		t.Fatalf("steps = %d, want %d", got, 1+2*n)
	}
}
