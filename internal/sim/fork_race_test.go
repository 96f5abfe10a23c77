package sim_test

// Fork-under-concurrency audit: the parallel explorer hands forked systems
// across worker goroutines and may fork one parent from several places, so
// Fork's contract — concurrent Forks of one sim.System are safe as long as no
// goroutine concurrently mutates it — is pinned here under -race.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// hammerConcurrentForks advances sys a few steps, then forks it from many
// goroutines at once; every fork is driven to completion on its own
// goroutine under a per-goroutine schedule and must reach a valid decision
// with a coherent memory fingerprint. Two forks driven by the identical
// schedule must behave identically, which pins that concurrent forking
// cannot leak state between siblings.
func hammerConcurrentForks(t *testing.T, mk func() *sim.System, inputs []int) {
	t.Helper()
	const goroutines, forksEach = 8, 8
	sys := mk()
	defer sys.Close()
	warm := sim.NewRandom(3)
	for i := 0; i < 4 && len(sys.LiveSet()) > 0; i++ {
		if _, err := sys.Step(warm.Next(sys)); err != nil {
			t.Fatal(err)
		}
	}
	fps := make([][forksEach]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < forksEach; i++ {
				fk, err := sys.Fork()
				if err != nil {
					t.Error(err)
					return
				}
				// The same seed per fork index across goroutines: resulting
				// runs must be identical.
				res, err := fk.Run(sim.NewRandom(int64(i+1)), 500_000)
				if err != nil {
					t.Error(err)
					fk.Close()
					return
				}
				if err := res.CheckConsensus(inputs); err != nil {
					t.Error(err)
				}
				fps[g][i] = fmt.Sprintf("%s|%v", fk.Mem().Fingerprint(), res.Decisions)
				fk.Close()
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < forksEach; i++ {
		for g := 1; g < goroutines; g++ {
			if fps[g][i] != fps[0][i] {
				t.Fatalf("fork %d diverged between goroutines:\n%s\n%s", i, fps[0][i], fps[g][i])
			}
		}
	}
}

// TestConcurrentForkSteppers hammers native (struct-copy) forking.
func TestConcurrentForkSteppers(t *testing.T) {
	inputs := []int{2, 0, 1}
	hammerConcurrentForks(t, func() *sim.System {
		pr := consensus.MaxRegisters(3)
		return sim.NewSystemSteppers(pr.NewMemory(), inputs, pr.Steppers(inputs))
	}, inputs)
}

// TestConcurrentStateKeys: AppendStateKey must be safe to call
// concurrently with Forks of the same system (the parallel explorer
// computes keys for siblings while a cousin subtree forks the shared
// ancestor's descendants).
func TestConcurrentStateKeys(t *testing.T) {
	pr := consensus.MaxRegisters(2)
	inputs := []int{0, 1}
	sys := sim.NewSystemSteppers(pr.NewMemory(), inputs, pr.Steppers(inputs))
	defer sys.Close()
	for _, pid := range []int{0, 1, 0} {
		if _, err := sys.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	want, ok := sys.StateKey()
	if !ok {
		t.Fatal("ported system must be keyable")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				if i%5 == 0 {
					fk, err := sys.Fork()
					if err != nil {
						t.Error(err)
						return
					}
					fk.Close()
				}
				key, ok := sys.AppendStateKey(buf[:0])
				buf = key[:0]
				if !ok || string(key) != want {
					t.Errorf("concurrent state key diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := machine.MustInt(sys.Mem().Peek(0)); got == nil {
		t.Fatal("memory unexpectedly empty")
	}
}

// TestPoisedDeliveryAllocs: the poise of a delivery pid is a view of the
// system's shared rank table, so reading it allocates nothing.
func TestPoisedDeliveryAllocs(t *testing.T) {
	sys, err := consensus.QSC(3).NewSystem([]int{2, 0, 1},
		sim.WithDelivery(sim.Delivery{Mode: sim.DeliverReorder}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, pid := range []int{0, 0, 1, 1} {
		if _, err := sys.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	dpid := -1
	for _, pid := range sys.AppendLive(nil) {
		if _, ok := sys.DeliveryTarget(pid); ok {
			dpid = pid
		}
	}
	if dpid < 0 {
		t.Fatal("no delivery pid is live")
	}
	op, ok := sys.Poised(dpid)
	if !ok || len(op.Args) != 1 {
		t.Fatalf("delivery pid %d poised on %+v", dpid, op)
	}
	if avg := testing.AllocsPerRun(100, func() { sys.Poised(dpid) }); avg != 0 {
		t.Fatalf("Poised of a delivery pid allocates %.1f times, want 0", avg)
	}
}
