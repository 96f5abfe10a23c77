package counter

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Counter is a counter machine driven by one process of a running system:
// each call runs one whole operation.
type Counter interface {
	// Components returns m, the number of components.
	Components() int
	// Inc increments component v by one.
	Inc(v int)
	// Scan returns the counts of all components.
	Scan() []int64
}

// BoundedCounter additionally decrements.
type BoundedCounter interface {
	Counter
	// Dec decrements component v by one.
	Dec(v int)
}

// procCounter runs machine c's operations as process p's steps.
type procCounter struct {
	p    *sim.Proc
	c    Machine
	next sim.OpInfo
}

// driveOn runs c on p; the result is a BoundedCounter, whose Dec panics on
// the machines of unbounded counters.
func driveOn(p *sim.Proc, c Machine) BoundedCounter { return &procCounter{p: p, c: c} }

func (c *procCounter) run(start func(*sim.OpInfo)) {
	start(&c.next)
	for c.c.Step(c.p.Apply(c.next.Loc, c.next.Op, c.next.Args...), &c.next) {
	}
}

func (c *procCounter) Components() int { return c.c.Components() }
func (c *procCounter) Inc(v int)       { c.run(func(next *sim.OpInfo) { c.c.StartInc(v, next) }) }
func (c *procCounter) Dec(v int)       { c.run(func(next *sim.OpInfo) { c.c.StartDec(v, next) }) }

func (c *procCounter) Scan() []int64 {
	c.run(c.c.StartScan)
	return slices.Clone(c.c.Counts())
}

// runSingle runs body as a 1-process system against mem and waits for it to
// finish; use it to test counter semantics sequentially.
func runSingle(t *testing.T, mem *machine.Memory, body sim.Body) {
	t.Helper()
	sys := sim.NewSystem(mem, []int{0}, body)
	defer sys.Close()
	if _, err := sys.Run(sim.Solo{PID: 0}, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if sys.Err() != nil {
		t.Fatal(sys.Err())
	}
}

// mkCounter builds a fresh memory and a counter constructor for each
// implementation under test, keyed by name. m components, n processes.
type mkCounter struct {
	name    string
	bounded bool
	exact   bool // concurrent increments are never merged
	mem     func(m, n int) *machine.Memory
	build   func(p *sim.Proc, m, n int) Counter
}

func implementations() []mkCounter {
	return []mkCounter{
		{
			name:  "multiply",
			exact: true,
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetReadMultiply, 1,
					machine.WithInitial(map[int]machine.Value{0: MultiplyInitial()}))
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewMulMachine(0, m, false)) },
		},
		{
			name:  "fetch-multiply",
			exact: true,
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetFetchMultiply, 1,
					machine.WithInitial(map[int]machine.Value{0: MultiplyInitial()}))
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewMulMachine(0, m, true)) },
		},
		{
			name:    "add",
			bounded: true,
			exact:   true,
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetReadAdd, 1)
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewAddMachine(0, m, n, false)) },
		},
		{
			name:    "fetch-add",
			bounded: true,
			exact:   true,
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetFAA, 1)
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewAddMachine(0, m, n, true)) },
		},
		{
			name:  "set-bit",
			exact: true,
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetReadSetBit, 1)
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewSetBitMachine(0, m, p.N(), p.ID())) },
		},
		{
			name:  "increment",
			exact: true,
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetReadWriteIncrement, m)
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewIncMachineInto(nil, 0, m, false)) },
		},
		{
			name: "tracks",
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetReadWrite1, 0, machine.WithUnbounded())
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewTracksMachine(0, m, false)) },
		},
		{
			name: "tracks-tas",
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetReadTAS, 0, machine.WithUnbounded())
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewTracksMachine(0, m, true)) },
		},
		{
			// Unary counters merge racing increments (two processes can set
			// the same bit); exactness holds sequentially only. This is the
			// documented caveat of the Bowman-style reconstruction.
			name:    "unary",
			bounded: true,
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetReadWrite01, m*3*n)
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewUnaryMachineInto(nil, 0, m, 3*n, false)) },
		},
		{
			name:    "unary-tas",
			bounded: true,
			mem: func(m, n int) *machine.Memory {
				return machine.New(machine.SetReadTASReset, m*3*n)
			},
			build: func(p *sim.Proc, m, n int) Counter { return driveOn(p, NewUnaryMachineInto(nil, 0, m, 3*n, true)) },
		},
	}
}

// TestSequentialSemantics drives each implementation through a fixed
// sequence of increments (and decrements where supported) from one process
// and checks scans against a reference model.
func TestSequentialSemantics(t *testing.T) {
	for _, impl := range implementations() {
		t.Run(impl.name, func(t *testing.T) {
			m, n := 4, 5
			runSingle(t, impl.mem(m, n), func(p *sim.Proc) int {
				c := impl.build(p, m, n)
				if c.Components() != m {
					t.Errorf("components = %d, want %d", c.Components(), m)
				}
				model := make([]int64, m)
				ops := []int{0, 1, 1, 3, 0, 2, 2, 2, 1, 0}
				for _, v := range ops {
					c.Inc(v)
					model[v]++
					got := c.Scan()
					for i := range model {
						if got[i] != model[i] {
							t.Errorf("after inc %v: scan %v, want %v", v, got, model)
							return 0
						}
					}
				}
				if bc, ok := c.(BoundedCounter); ok && impl.bounded {
					for _, v := range []int{1, 2, 0} {
						bc.Dec(v)
						model[v]--
					}
					got := c.Scan()
					for i := range model {
						if got[i] != model[i] {
							t.Errorf("after decs: scan %v, want %v", got, model)
						}
					}
				}
				return 0
			})
		})
	}
}

// TestSequentialQuick is the property-based version: random op sequences
// must match the model exactly (single process).
func TestSequentialQuick(t *testing.T) {
	for _, impl := range implementations() {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				m, n := 1+rng.Intn(4), 4
				ok := true
				runSingle(t, impl.mem(m, n), func(p *sim.Proc) int {
					c := impl.build(p, m, n)
					bc, canDec := c.(BoundedCounter)
					model := make([]int64, m)
					for i := 0; i < 30; i++ {
						v := rng.Intn(m)
						if canDec && impl.bounded && model[v] > 0 && rng.Intn(3) == 0 {
							bc.Dec(v)
							model[v]--
						} else if model[v] < int64(3*n-1) {
							c.Inc(v)
							model[v]++
						}
						got := c.Scan()
						for j := range model {
							if got[j] != model[j] {
								ok = false
								return 0
							}
						}
					}
					return 0
				})
				return ok
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentExactness runs several processes incrementing concurrently
// under random schedules; for exact counters the final scan must equal the
// per-component totals, and for merging counters (tracks) it must be
// monotone and bounded by the totals.
func TestConcurrentExactness(t *testing.T) {
	for _, impl := range implementations() {
		impl := impl
		t.Run(impl.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m, n := 3, 4
				mem := impl.mem(m, n)
				totals := make([]int64, m)
				plans := make([][]int, n)
				for pid := range plans {
					k := 3 + rng.Intn(5)
					for j := 0; j < k; j++ {
						v := rng.Intn(m)
						plans[pid] = append(plans[pid], v)
						totals[v]++
					}
				}
				body := func(p *sim.Proc) int {
					c := impl.build(p, m, n)
					for _, v := range plans[p.ID()] {
						c.Inc(v)
					}
					return 0
				}
				inputs := make([]int, n)
				sys := sim.NewSystem(mem, inputs, body)
				if _, err := sys.Run(sim.NewRandom(seed), 1_000_000); err != nil {
					t.Fatal(err)
				}
				sys.Close()
				// Verify with a fresh reader over the same memory. The reader
				// system keeps the same process count so layout parameters
				// derived from p.N() (set-bit lanes) match; only process 0
				// runs.
				reader := sim.NewSystem(mem, make([]int, n), func(p *sim.Proc) int {
					if p.ID() != 0 {
						return 0
					}
					c := impl.build(p, m, n)
					got := c.Scan()
					for v := range totals {
						if impl.exact && got[v] != totals[v] {
							t.Errorf("seed %d: component %d = %d, want %d", seed, v, got[v], totals[v])
						}
						if !impl.exact && (got[v] > totals[v] || (totals[v] > 0 && got[v] == 0)) {
							t.Errorf("seed %d: merging counter component %d = %d, totals %d",
								seed, v, got[v], totals[v])
						}
					}
					return 0
				})
				if _, err := reader.Run(sim.Solo{PID: 0}, 1_000_000); err != nil {
					t.Fatal(err)
				}
				reader.Close()
			}
		})
	}
}

// TestAddBound checks the Add counter's digit capacity bookkeeping.
func TestAddBound(t *testing.T) {
	runSingle(t, machine.New(machine.SetReadAdd, 1), func(p *sim.Proc) int {
		am := NewAddMachine(0, 3, 7, false)
		bound := am.base.Int64()
		if bound != 21 {
			t.Errorf("bound = %d, want 21", bound)
		}
		c := driveOn(p, am)
		// Fill one component to the cap and make sure neighbours are clean.
		for i := int64(0); i < bound-1; i++ {
			c.Inc(1)
		}
		got := c.Scan()
		if got[0] != 0 || got[1] != bound-1 || got[2] != 0 {
			t.Errorf("scan = %v", got)
		}
		return 0
	})
}

// TestTracksFootprintGrows verifies the tracks counter consumes locations
// proportional to the counts — the measurable face of the unbounded-space
// row.
func TestTracksFootprintGrows(t *testing.T) {
	mem := machine.New(machine.SetReadWrite1, 0, machine.WithUnbounded())
	runSingle(t, mem, func(p *sim.Proc) int {
		c := driveOn(p, NewTracksMachine(0, 2, false))
		for i := 0; i < 25; i++ {
			c.Inc(0)
		}
		for i := 0; i < 10; i++ {
			c.Inc(1)
		}
		s := c.Scan()
		if s[0] != 25 || s[1] != 10 {
			t.Errorf("scan = %v", s)
		}
		return 0
	})
	if fp := mem.Stats().Footprint(); fp < 35 {
		t.Fatalf("footprint = %d, want >= 35 (one location per unit of count)", fp)
	}
}
