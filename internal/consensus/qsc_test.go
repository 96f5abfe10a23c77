package consensus

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// qscInstances is the QSC differential portfolio: honest instances across
// sizes and configurations plus the three Byzantine variants.
func qscInstances() []ForkableInstance {
	return []ForkableInstance{
		{Name: "qsc-1", Build: func() *Protocol { return QSC(1) }, Inputs: []int{0}},
		{Name: "qsc-2", Build: func() *Protocol { return QSC(2) }, Inputs: []int{1, 0}},
		{Name: "qsc-3", Build: func() *Protocol { return QSC(3) }, Inputs: []int{2, 0, 1}},
		{Name: "qsc-4-t3-r2", Build: func() *Protocol { return QSCConfig(4, 3, 2) }, Inputs: []int{3, 1, 1, 0}},
		{Name: "qsc-byz-malformed", Build: func() *Protocol {
			return QSCWithByzantine(3, 2, 2, QSCByzMalformed)
		}, Inputs: []int{0, 1, 0}},
		{Name: "qsc-byz-out-of-turn", Build: func() *Protocol {
			return QSCWithByzantine(3, 2, 2, QSCByzOutOfTurn)
		}, Inputs: []int{0, 1, 0}},
		{Name: "qsc-byz-fork", Build: func() *Protocol {
			return QSCWithByzantine(3, 2, 2, QSCByzFork)
		}, Inputs: []int{0, 1, 0}},
	}
}

// TestQSCStepperMatchesBody pins the QSC steppers (honest and Byzantine) to
// their coroutine Body oracles: identical seeded schedules must yield identical
// instruction traces, decisions, and final memory. QSC is not in the
// wait-free portfolio battery because FLP lets runs end undecided; this
// differential tolerates that, but requires the two engines to agree on it.
func TestQSCStepperMatchesBody(t *testing.T) {
	for _, tc := range qscInstances() {
		t.Run(tc.Name, func(t *testing.T) {
			decidedRuns := 0
			for seed := int64(1); seed <= 12; seed++ {
				pr := tc.Build()
				if pr.Steppers == nil {
					t.Fatal("protocol carries no steppers")
				}
				bodySys := sim.NewSystem(pr.NewMemory(), tc.Inputs, bodyOf(pr), sim.WithTrace())
				stepSys := sim.NewSystemSteppers(pr.NewMemory(), tc.Inputs, pr.Steppers(tc.Inputs), sim.WithTrace())

				bres, berr := bodySys.Run(sim.NewRandom(seed), 200_000)
				sres, serr := stepSys.Run(sim.NewRandom(seed), 200_000)
				if berr != nil || serr != nil {
					t.Fatalf("seed %d: body err %v, stepper err %v", seed, berr, serr)
				}
				bt, st := bodySys.Trace(), stepSys.Trace()
				if len(bt) != len(st) {
					t.Fatalf("seed %d: trace lengths %d vs %d", seed, len(bt), len(st))
				}
				for i := range bt {
					if bt[i].PID != st[i].PID || bt[i].Info.Loc != st[i].Info.Loc ||
						bt[i].Info.Op != st[i].Info.Op || len(bt[i].Info.Args) != len(st[i].Info.Args) {
						t.Fatalf("seed %d step %d: body %v vs stepper %v", seed, i, bt[i], st[i])
					}
					for j := range bt[i].Info.Args {
						if !machine.EqualValues(bt[i].Info.Args[j], st[i].Info.Args[j]) {
							t.Fatalf("seed %d step %d arg %d: body %v vs stepper %v",
								seed, i, j, bt[i].Info.Args[j], st[i].Info.Args[j])
						}
					}
				}
				if fmt.Sprint(bres.Decisions) != fmt.Sprint(sres.Decisions) {
					t.Fatalf("seed %d: decisions %v vs %v", seed, bres.Decisions, sres.Decisions)
				}
				if bf, sf := bodySys.Mem().Fingerprint(), stepSys.Mem().Fingerprint(); bf != sf {
					t.Fatalf("seed %d: final memory %q vs %q", seed, bf, sf)
				}
				if len(sres.Decisions) > 0 {
					decidedRuns++
				}
				bodySys.Close()
				stepSys.Close()
			}
			if decidedRuns == 0 {
				t.Fatal("no seed produced any decision; differential is vacuous")
			}
		})
	}
}

// TestQSCForkMidRun: QSC builds natively forkable systems, and a mid-run
// fork continued under a different schedule still satisfies consensus
// safety (the honest instances; Byzantine variants are exercised by the
// planted-violation tests instead).
func TestQSCForkMidRun(t *testing.T) {
	for _, tc := range qscInstances()[:4] {
		t.Run(tc.Name, func(t *testing.T) {
			pr := tc.Build()
			sys := pr.MustSystem(tc.Inputs)
			defer sys.Close()
			if !sys.ForksNatively() {
				t.Fatal("QSC system does not fork natively")
			}
			sched := sim.NewRandom(7)
			for i := 0; i < 5; i++ {
				pid := sched.Next(sys)
				if pid < 0 {
					break
				}
				if _, err := sys.Step(pid); err != nil {
					t.Fatal(err)
				}
			}
			fk, err := sys.Fork()
			if err != nil {
				t.Fatal(err)
			}
			defer fk.Close()
			for i, s := range []*sim.System{sys, fk} {
				res, err := s.Run(sim.NewRandom(int64(11+i*7)), 200_000)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.CheckConsensus(tc.Inputs); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestQSCDecidesUnanimous: with unanimous inputs every fair random schedule
// that decides must decide the input value, and decisions must be common —
// and the fast path should in fact decide on every seed tried.
func TestQSCDecidesUnanimous(t *testing.T) {
	inputs := []int{1, 1, 1}
	for seed := int64(1); seed <= 8; seed++ {
		sys := QSC(3).MustSystem(inputs)
		res, err := sys.Run(sim.NewRandom(seed), 200_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Decisions) != 3 {
			t.Fatalf("seed %d: expected all 3 processes decided, got %v", seed, res)
		}
		for pid, d := range res.Decisions {
			if d != 1 {
				t.Fatalf("seed %d: process %d decided %d under unanimous input 1", seed, pid, d)
			}
		}
		sys.Close()
	}
}

// TestQSCSingleProcess: n = 1 decides its own input at birth — the empty
// broadcast must not leave the process gathering forever.
func TestQSCSingleProcess(t *testing.T) {
	sys := QSC(1).MustSystem([]int{0})
	defer sys.Close()
	res, err := sys.Run(sim.NewRandom(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := res.Decisions[0]; !ok || d != 0 {
		t.Fatalf("n=1 result %v, want instant decision 0", res)
	}
	if res.Steps != 0 {
		t.Fatalf("n=1 took %d steps, want 0", res.Steps)
	}
}

// TestQSCSafetyUnderDeliveryModes: honest QSC keeps agreement and validity
// under seeded random schedules in every delivery mode, including reordering
// and message loss up to the resilience budget.
func TestQSCSafetyUnderDeliveryModes(t *testing.T) {
	modes := []struct {
		name string
		opt  sim.SystemOption
	}{
		{"ordered", sim.WithDelivery(sim.Delivery{Mode: sim.DeliverOrdered})},
		{"reorder", sim.WithDelivery(sim.Delivery{Mode: sim.DeliverReorder})},
		{"lossy", sim.WithDelivery(sim.Delivery{Mode: sim.DeliverLossy, MaxDrops: 1})},
	}
	inputs := []int{2, 0, 1}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			decided := 0
			for seed := int64(1); seed <= 10; seed++ {
				sys := QSC(3).MustSystem(inputs, m.opt)
				res, err := sys.Run(sim.NewRandom(seed), 200_000)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := res.CheckConsensus(inputs); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				decided += len(res.Decisions)
				sys.Close()
			}
			if decided == 0 {
				t.Fatal("no decision on any seed; safety check is vacuous")
			}
		})
	}
}

// qscByzPid3 returns the delivery pid for channel k, rank j of an n=3
// Byzantine instance (stride = channel capacity).
func qscByzDeliverPid(pr *Protocol, k, j int) int {
	return pr.N + k*pr.Channels[0].Cap + j
}

// mustStep drives one scheduler step or fails the test.
func mustStep(t *testing.T, sys *sim.System, pid int) {
	t.Helper()
	if _, err := sys.Step(pid); err != nil {
		t.Fatalf("step %d: %v", pid, err)
	}
}

// TestQSCByzantineForkViolatesAgreement drives the planted equivocation to
// the split-brain outcome under an explicit FIFO-ordered schedule: the
// adversary convinces process 0 that 0 is unanimously supported and process
// 1 that 1 is, and both decide differently.
func TestQSCByzantineForkViolatesAgreement(t *testing.T) {
	pr := QSCWithByzantine(3, 2, 4, QSCByzFork)
	inputs := []int{0, 1, 0}
	sys := pr.MustSystem(inputs)
	defer sys.Close()

	// Adversary first: its equivocating pairs land at the head of both honest
	// inboxes, so ordered rank-0 delivery feeds them before any honest mail.
	for i := 0; i < 4; i++ {
		mustStep(t, sys, 2)
	}
	// Honest processes complete their phase-1 broadcasts and block gathering.
	for _, pid := range []int{0, 0, 1, 1} {
		mustStep(t, sys, pid)
	}
	// Each honest process consumes the adversary's phase-1 then phase-2
	// message, interleaved with its own phase-2 broadcast, and decides.
	for _, honest := range []int{0, 1} {
		deliver := qscByzDeliverPid(pr, honest, 0)
		mustStep(t, sys, deliver) // byz phase-1 reaches the inbox
		mustStep(t, sys, honest)  // fold: unanimous quorum, go ready
		mustStep(t, sys, honest)  // phase-2 broadcast
		mustStep(t, sys, honest)
		mustStep(t, sys, deliver) // byz ready phase-2 reaches the inbox
		mustStep(t, sys, honest)  // fold: all-ready quorum, decide
		mustStep(t, sys, honest)  // decide announcement broadcast
		mustStep(t, sys, honest)
	}
	for pid, want := range map[int]int{0: 0, 1: 1} {
		if d, ok := sys.Decided(pid); !ok || d != want {
			t.Fatalf("process %d decided (%d,%v), want %d", pid, d, ok, want)
		}
	}
	err := sys.Result().CheckConsensus(inputs)
	if err == nil {
		t.Fatal("split-brain run passed CheckConsensus")
	}
	if !strings.Contains(err.Error(), "agreement") {
		t.Fatalf("wrong violation: %v", err)
	}
}

// TestQSCByzantineMalformedViolatesValidity delivers the adversary's bogus
// decide announcement: the garbage payloads are ignored, but the announced
// out-of-domain value is decided, violating validity.
func TestQSCByzantineMalformedViolatesValidity(t *testing.T) {
	pr := QSCWithByzantine(3, 2, 4, QSCByzMalformed)
	inputs := []int{0, 1, 0}
	sys := pr.MustSystem(inputs)
	defer sys.Close()

	for i := 0; i < 6; i++ {
		mustStep(t, sys, 2) // the whole adversarial script
	}
	mustStep(t, sys, 0) // honest 0 finishes its phase-1 broadcast
	mustStep(t, sys, 0)
	// Deliver and consume the adversary's three messages in FIFO order: the
	// raw word and the nonsense phase are dropped, the announcement decides.
	deliver := qscByzDeliverPid(pr, 0, 0)
	for i := 0; i < 3; i++ {
		mustStep(t, sys, deliver)
		mustStep(t, sys, 0)
	}
	if d, ok := sys.Decided(0); !ok || d != 3+39 {
		t.Fatalf("process 0 decided (%d,%v), want the planted %d", d, ok, 3+39)
	}
	err := sys.Result().CheckConsensus(inputs)
	if err == nil {
		t.Fatal("bogus decision passed CheckConsensus")
	}
	if !strings.Contains(err.Error(), "validity") {
		t.Fatalf("wrong violation: %v", err)
	}
}

// TestQSCByzantineOutOfTurnStaysSafe: the ill-timed but non-equivocating
// adversary must never break safety for the honest processes.
func TestQSCByzantineOutOfTurnStaysSafe(t *testing.T) {
	pr := QSCWithByzantine(3, 2, 4, QSCByzOutOfTurn)
	inputs := []int{0, 1, 0}
	decided := 0
	for seed := int64(1); seed <= 10; seed++ {
		sys := pr.MustSystem(inputs)
		res, err := sys.Run(sim.NewRandom(seed), 200_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.CheckConsensus(inputs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		decided += len(res.Decisions)
		sys.Close()
	}
	if decided == 0 {
		t.Fatal("honest processes never decided under the out-of-turn adversary")
	}
}

// TestQSCStateKeys: keys reflect state — different inputs diverge, forks
// agree until a side moves, and the system-level key is defined.
func TestQSCStateKeys(t *testing.T) {
	a := newQSCStepper(3, 2, 4, 0, 0)
	b := newQSCStepper(3, 2, 4, 0, 1)
	ka, _ := a.StateKey(nil)
	if kb, _ := b.StateKey(nil); ka == kb {
		t.Fatal("different inputs share a state key")
	}
	sys := QSC(3).MustSystem([]int{2, 0, 1})
	defer sys.Close()
	if _, ok := sys.StateKey(); !ok {
		t.Fatal("QSC system has no state key")
	}
	if _, ok := sys.AppendSymStateKey(nil, nil); !ok {
		t.Fatal("QSC system has no symmetric state key")
	}
	fk, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fk.Close()
	ks, _ := sys.StateKey()
	kf, _ := fk.StateKey()
	if ks != kf {
		t.Fatal("fork key differs from source")
	}
	mustStep(t, fk, 0)
	kf2, _ := fk.StateKey()
	if kf2 == ks {
		t.Fatal("stepped fork still shares the source key")
	}
}
