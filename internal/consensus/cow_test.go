package consensus

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/primes"
	"repro/internal/sim"
)

// Copy-on-write stepper state: a fork shares every value its source read
// from memory, every published collect buffer and (for MP.QSC) the bucket
// array, so a step that wrote into any of them in place would move a sibling
// without a step of its own. These tests hold that sharing against fresh
// replays, the way internal/machine's battery holds shared queues against a
// deep-copy oracle.

// cowCase is one protocol instance of the battery with the system options
// it runs under.
type cowCase struct {
	ForkableInstance
	opts []sim.SystemOption
}

// cowCases is the forkable portfolio plus the instances that reach the
// remaining shared shapes: max-registers starting past the int64 range, so
// every value a collect reads is a *big.Int, and MP.QSC under reordering
// delivery, whose processes fold messages into shared bucket arrays; and
// the sticky tracks, the one racing rule the portfolio does not run.
func cowCases() []cowCase {
	var out []cowCase
	for _, tc := range ForkablePortfolio() {
		out = append(out, cowCase{ForkableInstance: tc})
	}
	bigMaxReg := func() *Protocol {
		pr := MaxRegisters(3)
		start := EncodePair(MaxRegPair{R: 30, X: 0}, primes.Next(3))
		pr.Initial = map[int]machine.Value{0: start, 1: start}
		return pr
	}
	reorder := sim.WithDelivery(sim.Delivery{Mode: sim.DeliverReorder})
	return append(out,
		cowCase{ForkableInstance{"max-registers-big", bigMaxReg, []int{2, 0, 1}}, nil},
		cowCase{ForkableInstance{"qsc", func() *Protocol { return QSCConfig(3, 2, 2) }, []int{2, 0, 1}},
			[]sim.SystemOption{reorder}},
		cowCase{ForkableInstance{"write1-tracks-sticky", func() *Protocol { return WriteOneTracksSticky(3) }, []int{1, 2, 0}}, nil},
	)
}

// TestStepperCopyOnWrite forks at every poise point of a seeded run and
// drives the source and the fork on different schedules, interleaved one
// step each. After every step, each system's step and state key must equal
// those of a fresh system replaying the same schedule, and the run's root,
// which both descend from, must keep its key. Each seed runs twice: once
// forking afresh (ForkInto over nothing), once with a pool, where the forks
// closed at one point are rebuilt over at the next (ForkInto over a recycled
// stepper).
func TestStepperCopyOnWrite(t *testing.T) {
	for _, tc := range cowCases() {
		t.Run(tc.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				checkCopyOnWrite(t, tc, seed, false)
				checkCopyOnWrite(t, tc, seed, true)
			}
		})
	}
}

func TestStepperCopyOnWriteBigValues(t *testing.T) {
	// The battery's big-value case must actually hold big values, or it
	// checks nothing the word-valued portfolio case does not.
	for _, tc := range cowCases() {
		if tc.Name != "max-registers-big" {
			continue
		}
		sys := cowSystem(t, tc, nil)
		defer sys.Close()
		st, err := sys.Step(0) // the announcement
		if err != nil {
			t.Fatal(err)
		}
		if st, err = sys.Step(0); err != nil { // the first collect read
			t.Fatal(err)
		}
		if _, ok := machine.AsInt64(st.Result); ok {
			t.Fatalf("read %v fits a word; the case needs register values past int64", st.Result)
		}
	}
}

const (
	cowRunSteps   = 30 // length of the seeded run forked at every point
	cowDriveSteps = 20 // steps each of source and fork take after a fork
)

func checkCopyOnWrite(t *testing.T, tc cowCase, seed int64, pooled bool) {
	t.Helper()
	root := cowSystem(t, tc, nil)
	defer root.Close()
	if pooled {
		root.SetPool(new(sim.Pool))
	}
	sched := sim.NewRandom(seed)
	var run []int
	for k := 0; ; k++ {
		rootKey := cowKey(t, root)
		src, err := root.Fork()
		if err != nil {
			t.Fatal(err)
		}
		fk, err := src.Fork()
		if err != nil {
			t.Fatal(err)
		}
		pairs := []*cowRun{
			{sys: src, oracle: cowSystem(t, tc, run), sched: sim.NewRandom(seed*100 + int64(k))},
			{sys: fk, oracle: cowSystem(t, tc, run), sched: sim.NewRandom(seed*100 + int64(k) + 50)},
		}
		for i := 0; i < cowDriveSteps; i++ {
			for j, r := range pairs {
				if err := r.step(); err != nil {
					t.Fatalf("seed %d (pooled %v), fork at step %d, %s step %d: %v",
						seed, pooled, k, []string{"source", "fork"}[j], i, err)
				}
			}
		}
		for _, r := range pairs {
			r.sys.Close() // pooled: the next point's forks rebuild over it
			r.oracle.Close()
		}
		if got := cowKey(t, root); got != rootKey {
			t.Fatalf("seed %d: the run's root changed state while its descendants stepped (fork at step %d)", seed, k)
		}
		if k == cowRunSteps {
			return
		}
		pid := sched.Next(root)
		if pid < 0 {
			return
		}
		if _, err := root.Step(pid); err != nil {
			t.Fatal(err)
		}
		run = append(run, pid)
	}
}

// cowRun is a forked system under test and its oracle: a fresh system that
// replayed the fork's schedule and takes the same steps.
type cowRun struct {
	sys, oracle *sim.System
	sched       sim.Scheduler
	done        bool
}

// step advances sys one step under sched, the oracle by the same pid, and
// compares the steps taken and the state keys reached.
func (r *cowRun) step() error {
	if r.done {
		return nil
	}
	pid := r.sched.Next(r.sys)
	if pid < 0 {
		r.done = true
		if live := r.oracle.LiveSet(); len(live) != 0 {
			return fmt.Errorf("system finished, fresh replay still has live %v", live)
		}
		return nil
	}
	got, err := r.sys.Step(pid)
	if err != nil {
		return err
	}
	want, err := r.oracle.Step(pid)
	if err != nil {
		return fmt.Errorf("fresh replay cannot take step %d: %v", pid, err)
	}
	if g, w := stepString(got), stepString(want); g != w {
		return fmt.Errorf("took %s, fresh replay %s", g, w)
	}
	gk, gok := r.sys.StateKey()
	wk, wok := r.oracle.StateKey()
	if !gok || !wok || gk != wk {
		return fmt.Errorf("after %s the state key differs from the fresh replay's", stepString(got))
	}
	return nil
}

// cowSystem builds a fresh system for tc and replays prefix on it.
func cowSystem(t *testing.T, tc cowCase, prefix []int) *sim.System {
	t.Helper()
	sys, err := tc.Build().NewSystem(tc.Inputs, tc.opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pid := range prefix {
		if _, err := sys.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func cowKey(t *testing.T, sys *sim.System) string {
	t.Helper()
	k, ok := sys.StateKey()
	if !ok {
		t.Fatal("forkable systems must be keyable")
	}
	return k
}
