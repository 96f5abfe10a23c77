package consensus

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// maxSteps bounds every test run; obstruction-free protocols may not decide
// under adversarial interleavings, which is fine — safety is checked on
// whatever decisions happened, and liveness is checked under solo suffixes.
const maxSteps = 200_000

// builders enumerates every protocol constructor keyed by name; each takes
// the process count.
var builders = map[string]func(n int) *Protocol{
	"multiply":       Multiply,
	"fetch-multiply": FetchMultiply,
	"add":            Add,
	"fetch-add":      FetchAdd,
	"set-bit":        SetBit,
	"max-registers":  MaxRegisters,
	"increment":      Increment,
	"fetch-incr":     FetchIncrement,
	"registers":      Registers,
	"swap":           Swap,
	"cas":            CAS,
	"buffers-l1":     func(n int) *Protocol { return Buffered(n, 1) },
	"buffers-l2":     func(n int) *Protocol { return Buffered(n, 2) },
	"buffers-l3":     func(n int) *Protocol { return Buffered(n, 3) },
	"buffers-ma":     func(n int) *Protocol { return BufferedMultiAssign(n, 2) },
	"write1-tracks":  WriteOneTracks,
	"tas-tracks":     TASTracks,
	"write-bits":     WriteBits,
	"tas-reset":      TASReset,
}

// binaryBuilders are the binary-consensus building blocks and intro
// protocols (inputs restricted to {0,1}).
var binaryBuilders = map[string]func(n int) *Protocol{
	"increment-binary": IncrementBinary,
	"binary-bits":      BinaryBits,
	"intro-faa2-tas":   IntroFAA2TAS,
	"intro-dec-mul":    IntroDecMul,
}

func runAndCheck(t *testing.T, pr *Protocol, inputs []int, sched sim.Scheduler, wantAllDecide bool) *sim.Result {
	t.Helper()
	sys, err := pr.NewSystem(inputs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res, err := sys.Run(sched, maxSteps)
	if err != nil {
		t.Fatalf("%s: %v", pr.Name, err)
	}
	if err := res.CheckConsensus(inputs); err != nil {
		t.Fatalf("%s inputs=%v: %v", pr.Name, inputs, err)
	}
	if wantAllDecide && len(res.Undecided) > 0 {
		t.Fatalf("%s inputs=%v: undecided %v after %d steps",
			pr.Name, inputs, res.Undecided, res.Steps)
	}
	return res
}

func randInputs(rng *rand.Rand, n, m int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = rng.Intn(m)
	}
	return in
}

// TestRoundRobinAllProtocols checks agreement, validity and termination
// under fair round-robin scheduling for n = 2..6.
func TestRoundRobinAllProtocols(t *testing.T) {
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for n := 2; n <= 6; n++ {
				pr := build(n)
				inputs := make([]int, n)
				for i := range inputs {
					inputs[i] = (i*7 + 1) % n
				}
				runAndCheck(t, pr, inputs, &sim.RoundRobin{}, true)
			}
		})
	}
}

// TestBinaryProtocolsRoundRobin does the same for the binary protocols over
// all input patterns for small n.
func TestBinaryProtocolsRoundRobin(t *testing.T) {
	for name, build := range binaryBuilders {
		t.Run(name, func(t *testing.T) {
			for n := 2; n <= 5; n++ {
				for pattern := 0; pattern < (1 << n); pattern++ {
					pr := build(n)
					inputs := make([]int, n)
					for i := range inputs {
						inputs[i] = (pattern >> i) & 1
					}
					res := runAndCheck(t, pr, inputs, &sim.RoundRobin{}, true)
					// All-same inputs must decide that value (validity pins it).
					if pattern == 0 {
						if v, _ := res.AgreedValue(); v != 0 {
							t.Fatalf("all-zero inputs decided %d", v)
						}
					}
					if pattern == (1<<n)-1 {
						if v, _ := res.AgreedValue(); v != 1 {
							t.Fatalf("all-one inputs decided %d", v)
						}
					}
				}
			}
		})
	}
}

// TestRandomSchedules fuzzes every protocol with seeded random schedules.
func TestRandomSchedules(t *testing.T) {
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 15; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(4)
				pr := build(n)
				inputs := randInputs(rng, n, n)
				// Random schedules are fair with probability 1, so all
				// processes should decide within the step budget.
				runAndCheck(t, pr, inputs, sim.NewRandom(seed), true)
			}
		})
	}
}

// TestSoloRuns checks that a process running alone from the initial
// configuration decides its own input (obstruction-freedom plus validity).
func TestSoloRuns(t *testing.T) {
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for n := 2; n <= 5; n++ {
				for pid := 0; pid < n; pid++ {
					pr := build(n)
					inputs := make([]int, n)
					for i := range inputs {
						inputs[i] = i % pr.Values
					}
					sys := pr.MustSystem(inputs)
					res, err := sys.Run(sim.Solo{PID: pid}, maxSteps)
					if err != nil {
						t.Fatal(err)
					}
					d, ok := res.Decisions[pid]
					if !ok {
						t.Fatalf("%s n=%d: solo process %d did not decide in %d steps",
							pr.Name, n, pid, res.Steps)
					}
					if d != inputs[pid] {
						t.Fatalf("%s n=%d: solo process %d decided %d, want own input %d",
							pr.Name, n, pid, d, inputs[pid])
					}
					sys.Close()
				}
			}
		})
	}
}

// TestObstructionFreedom samples reachable configurations via random
// prefixes and verifies a subsequent solo run always decides.
func TestObstructionFreedom(t *testing.T) {
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(3)
				pr := build(n)
				inputs := randInputs(rng, n, n)
				sys := pr.MustSystem(inputs)
				prefix := rng.Intn(200)
				res, err := sys.Run(sim.NewRandomThenSolo(prefix, seed), maxSteps)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Decisions) == 0 {
					t.Fatalf("%s seed=%d: solo suffix did not decide", pr.Name, seed)
				}
				if err := res.CheckConsensus(inputs); err != nil {
					t.Fatal(err)
				}
				sys.Close()
			}
		})
	}
}

// TestCrashTolerance injects crashes: safety must hold, and since
// obstruction-free algorithms tolerate any number of crash failures, the
// survivors must still decide under a fair schedule.
func TestCrashTolerance(t *testing.T) {
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 3 + rng.Intn(3)
				pr := build(n)
				inputs := randInputs(rng, n, n)
				sys := pr.MustSystem(inputs)
				sched := sim.NewRandomCrash(sim.NewRandom(seed), 0.02, seed+999)
				res, err := sys.Run(sched, maxSteps)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.CheckConsensus(inputs); err != nil {
					t.Fatalf("%s seed=%d: %v", pr.Name, seed, err)
				}
				sys.Close()
			}
		})
	}
}

// TestDeclaredLocationsRespected verifies each bounded protocol stays within
// the locations it declares — the quantity Table 1 is about — by running on
// a memory of exactly that size (out-of-range use would error the run).
func TestDeclaredLocationsRespected(t *testing.T) {
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for n := 2; n <= 6; n++ {
				pr := build(n)
				if pr.Unbounded {
					continue
				}
				inputs := make([]int, n)
				for i := range inputs {
					inputs[i] = (n - 1 - i) % pr.Values
				}
				res := runAndCheck(t, pr, inputs, &sim.RoundRobin{}, true)
				_ = res
			}
		})
	}
}

// TestWaitFreeStepBounds verifies the wait-free protocols decide within a
// constant number of own steps regardless of adversarial scheduling.
func TestWaitFreeStepBounds(t *testing.T) {
	for name, build := range map[string]func(int) *Protocol{
		"cas": CAS, "intro-faa2-tas": IntroFAA2TAS, "intro-dec-mul": IntroDecMul,
	} {
		t.Run(name, func(t *testing.T) {
			n := 5
			pr := build(n)
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = i % pr.Values
			}
			sys := pr.MustSystem(inputs)
			defer sys.Close()
			// Adversarial order: reverse round robin, one process at a time.
			for pid := n - 1; pid >= 0; pid-- {
				steps := 0
				for sys.Live(pid) {
					if _, err := sys.Step(pid); err != nil {
						t.Fatal(err)
					}
					steps++
					if steps > 3 {
						t.Fatalf("%s: process %d took more than 3 steps", pr.Name, pid)
					}
				}
			}
			if err := sys.Result().CheckConsensus(inputs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSwapSoloStepBound verifies Lemma 8.7: a solo run of Algorithm 1
// decides after at most 3n-2 scans. Scans cost at least n-1 reads each plus
// a swap per iteration; we bound total solo steps generously by the lemma's
// structure and verify the decision itself exactly.
func TestSwapSoloStepBound(t *testing.T) {
	for n := 2; n <= 8; n++ {
		pr := Swap(n)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = n - 1 - i
		}
		sys := pr.MustSystem(inputs)
		res, err := sys.Run(sim.Solo{PID: 0}, maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := res.Decisions[0]; !ok || d != inputs[0] {
			t.Fatalf("n=%d: solo decision %v", n, res.Decisions)
		}
		// 3n-2 scans, each 2(n-1) reads when stable, plus 3(n-1) swaps.
		bound := int64((3*n - 2) * 2 * (n) * 2)
		if res.Steps > bound {
			t.Fatalf("n=%d: solo took %d steps, above Lemma 8.7-derived bound %d",
				n, res.Steps, bound)
		}
		sys.Close()
	}
}

// TestLargerN pushes a representative subset to n=12 to catch size-dependent
// arithmetic bugs (prime tables, digit bases, bit layouts, lap vectors).
func TestLargerN(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"multiply", "add", "set-bit", "max-registers",
		"registers", "swap", "buffers-l3", "increment", "cas"} {
		t.Run(name, func(t *testing.T) {
			n := 12
			pr := builders[name](n)
			inputs := randInputs(rand.New(rand.NewSource(1)), n, n)
			runAndCheck(t, pr, inputs, &sim.RoundRobin{}, true)
			runAndCheck(t, builders[name](n), inputs, sim.NewRandom(7), true)
		})
	}
}

// TestInputValidation covers NewSystem error paths.
func TestInputValidation(t *testing.T) {
	pr := CAS(3)
	if _, err := pr.NewSystem([]int{0, 1}); err == nil {
		t.Fatal("wrong input count accepted")
	}
	if _, err := pr.NewSystem([]int{0, 1, 3}); err == nil {
		t.Fatal("out-of-range input accepted")
	}
	if _, err := pr.NewSystem([]int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
}

// TestNewSystemOneForm: a protocol sets exactly one of Body and Steppers;
// NewSystem refuses one with both or neither instead of picking one.
func TestNewSystemOneForm(t *testing.T) {
	both := CAS(2)
	both.Body = casBody
	neither := CAS(2)
	neither.Steppers = nil
	for _, pr := range []*Protocol{both, neither} {
		if sys, err := pr.NewSystem([]int{0, 1}); err == nil {
			sys.Close()
			t.Fatalf("Body set %v, Steppers set %v: NewSystem accepted the protocol",
				pr.Body != nil, pr.Steppers != nil)
		}
	}
	body := CAS(2)
	body.Body, body.Steppers = casBody, nil
	for _, pr := range []*Protocol{CAS(2), body} {
		sys, err := pr.NewSystem([]int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if sys.ForksNatively() != (pr.Steppers != nil) {
			t.Fatalf("Steppers set %v, but the system forks natively: %v", pr.Steppers != nil, sys.ForksNatively())
		}
		sys.Close()
	}
}

// TestMultiAssignProtocolExplored bounded-explores the multi-assignment-
// capable buffer protocol for n=2.
func TestMultiAssignProtocolExplored(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		pr := BufferedMultiAssign(2, 2)
		inputs := []int{1, 0}
		runAndCheck(t, pr, inputs, sim.NewRandom(seed), true)
	}
}
