package sim_test

// The Poise contract (sim.Stepper): Poise returns nil exactly when the
// process has finished, and otherwise a pointer to the instruction the
// stepper keeps as state. The pointer and its contents hold until the
// stepper's next Resume, Halt or ForkInto, whatever else reads the stepper,
// and a fork's instruction never points into its source, so recycling the
// source cannot rewrite the fork's poise. Poise writes nothing, so it may
// run next to concurrent forks of the same stepper.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// poiseCase is one system whose steppers the contract is checked on.
type poiseCase struct {
	name  string
	build func() (*sim.System, error)
}

// poiseCases covers every stepper type: the forkable portfolio (the
// consensus steppers, swap, and the racing loops over every counter
// machine), MP.QSC, its Byzantine adversary, the sticky tracks (the one
// racing rule the portfolio does not run), and the coroutine Body adapter
// over shared memory (Algorithm 1's {read, swap} locations) and over
// channels (MP.QSC's), running small Bodies of the test's own.
func poiseCases() []poiseCase {
	var out []poiseCase
	for _, tc := range consensus.ForkablePortfolio() {
		out = append(out, poiseCase{tc.Name, func() (*sim.System, error) {
			return tc.Build().NewSystem(tc.Inputs)
		}})
	}
	reorder := sim.WithDelivery(sim.Delivery{Mode: sim.DeliverReorder})
	// swapper swaps its input into one location and adopts what it reads
	// from the other, when anything.
	swapper := func(p *sim.Proc) int {
		loc := p.ID() % 2
		p.Apply(loc, machine.OpSwap, machine.Int(int64(p.Input())))
		if x, ok := machine.AsInt64(p.Apply(1-loc, machine.OpRead)); ok {
			return int(x)
		}
		return p.Input()
	}
	// gossip sends its input to every other process and decides the
	// largest of its input and the first value it receives.
	gossip := func(p *sim.Proc) int {
		for dest := 0; dest < p.N(); dest++ {
			if dest != p.ID() {
				p.Send(dest, machine.Int(int64(p.Input())))
			}
		}
		return max(p.Input(), int(machine.MustInt(p.Recv(p.ID())).Int64()))
	}
	return append(out,
		poiseCase{"qsc", func() (*sim.System, error) {
			return consensus.QSCConfig(3, 2, 2).NewSystem([]int{2, 0, 1}, reorder)
		}},
		poiseCase{"qsc-byzantine", func() (*sim.System, error) {
			return consensus.QSCWithByzantine(3, 2, 2, consensus.QSCByzFork).NewSystem([]int{0, 1, 0}, reorder)
		}},
		poiseCase{"write1-tracks-sticky", func() (*sim.System, error) {
			return consensus.WriteOneTracksSticky(3).NewSystem([]int{1, 2, 0})
		}},
		poiseCase{"body-swap", func() (*sim.System, error) {
			return sim.NewSystem(consensus.Swap(3).NewMemory(), []int{2, 1, 0}, swapper), nil
		}},
		poiseCase{"body-qsc", func() (*sim.System, error) {
			return sim.NewSystem(consensus.QSCConfig(3, 2, 2).NewMemory(), []int{2, 0, 1}, gossip, reorder), nil
		}},
	)
}

// renderOp spells out an instruction down to its argument values, so a
// rewritten argument slot shows even where the slice header is unchanged.
func renderOp(op *sim.OpInfo) string {
	if op == nil {
		return "nil"
	}
	return fmt.Sprintf("%v args=%v multi=%v", *op, op.Args, op.Multi)
}

const poiseRunSteps = 40 // steps of each seeded run checked at every poise point

// TestPoiseContract checks, at every poise point of seeded runs and for
// every process, that Poise is nil exactly when the process finished (in
// agreement with Outcome and with the system, which learns it from
// Resume's done), that it keeps returning the same pointer and contents
// across repeated calls, state keys and forks, and that a fork's
// instruction and arguments survive a recycled ForkInto overwriting its
// source.
func TestPoiseContract(t *testing.T) {
	for _, tc := range poiseCases() {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				checkPoiseRun(t, tc, seed)
			}
		})
	}
}

// checkPoiseRun drives a seeded run and checks each of its poise points on
// a fresh system replaying the run so far. The replay's steppers are the
// ones the protocol built, advanced in place, so the check may overwrite
// them: a fork of a stepper whose Args were copied instead of re-pointed
// points into exactly such a stepper.
func checkPoiseRun(t *testing.T, tc poiseCase, seed int64) {
	t.Helper()
	driver := mustBuild(t, tc)
	defer driver.Close()
	sched := sim.NewRandom(seed)
	var pids []int
	// retired holds each process's fork from the previous poise point: a
	// same-typed stepper in another state, to recycle sources over.
	retired := make([]sim.Stepper, driver.N())
	for k := 0; ; k++ {
		sys := mustBuild(t, tc)
		for _, pid := range pids {
			if _, err := sys.Step(pid); err != nil {
				t.Fatalf("seed %d: replaying step of %d: %v", seed, pid, err)
			}
		}
		for pid := 0; pid < sys.N(); pid++ {
			checkPoisePoint(t, sys, pid, retired, fmt.Sprintf("seed %d step %d pid %d", seed, k, pid))
		}
		sys.Close()
		if k == poiseRunSteps || len(driver.AppendLive(nil)) == 0 {
			return
		}
		pid := sched.Next(driver)
		if _, err := driver.Step(pid); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, k, err)
		}
		pids = append(pids, pid)
	}
}

func mustBuild(t *testing.T, tc poiseCase) *sim.System {
	t.Helper()
	sys, err := tc.build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// checkPoisePoint checks process pid of sys. It overwrites the process's
// stepper, so sys must not be stepped afterwards.
func checkPoisePoint(t *testing.T, sys *sim.System, pid int, retired []sim.Stepper, where string) {
	t.Helper()
	st := sys.Stepper(pid)
	p := st.Poise()
	decided, _, err := st.Outcome()
	if finished := decided || err != nil; (p == nil) != finished {
		t.Fatalf("%s: Poise %s, but Outcome says decided=%v err=%v", where, renderOp(p), decided, err)
	}
	if _, sysDecided := sys.Decided(pid); (p == nil) != (sysDecided || err != nil) {
		t.Fatalf("%s: Poise %s, but the system recorded decided=%v", where, renderOp(p), sysDecided)
	}
	if p == nil {
		return
	}
	want := renderOp(p)
	same := func(what string) {
		t.Helper()
		if q := st.Poise(); q != p || renderOp(q) != want {
			t.Fatalf("%s: after %s, Poise is %p %s, was %p %s", where, what, q, renderOp(q), p, want)
		}
	}
	same("a second Poise")
	if k, ok := st.(sim.StateKeyer); ok {
		k.StateKey(nil)
		same("StateKey(nil)")
		k.StateKey(func(loc int) int { return 5*loc + 1 })
		same("StateKey(relabel)")
	}
	f, ok := st.(sim.Forker)
	if !ok {
		return
	}
	fk := f.ForkInto(nil)
	same("ForkInto(nil)")
	fp := fk.Poise()
	if renderOp(fp) != want {
		t.Fatalf("%s: fork poised on %s, source on %s", where, renderOp(fp), want)
	}
	// Recycle the fork's source over every other process's stepper and
	// over this process's previous fork: the fork must not notice.
	others := []sim.Stepper{retired[pid]}
	for q := 0; q < sys.N(); q++ {
		others = append(others, sys.Stepper(q))
	}
	for _, other := range others {
		if other == nil || other == st || other.Poise() == nil {
			continue
		}
		other.(sim.Forker).ForkInto(st)
		if got := fk.Poise(); got != fp || renderOp(got) != want {
			t.Fatalf("%s: recycling the fork's source over a copy of %s changed the fork's poise to %s, want %s",
				where, renderOp(other.Poise()), renderOp(got), want)
		}
	}
	retired[pid] = fk
}

// TestPoiseContractConcurrentForks: Poise writes nothing, so the read paths
// (Poised, Live) of a system stay read-only next to other goroutines forking
// it. Several goroutines fork one system at once and read every pid's poise
// on their own forks and on the shared source, also directly through the
// source's steppers; under -race, a Poise or a ForkInto that wrote into the
// source would race with the other goroutines. Every read must match the
// poise of the system the source was forked from.
func TestPoiseContractConcurrentForks(t *testing.T) {
	for _, tc := range poiseCases() {
		t.Run(tc.name, func(t *testing.T) {
			root, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			defer root.Close()
			if !root.ForksNatively() {
				t.Skip("the coroutine adapter does not fork")
			}
			sched := sim.NewRandom(5)
			for i := 0; i < 6 && len(root.AppendLive(nil)) > 0; i++ {
				if _, err := root.Step(sched.Next(root)); err != nil {
					t.Fatal(err)
				}
			}
			poises := func(sys *sim.System) string {
				s := ""
				for pid := 0; pid < sys.MaxPid(); pid++ {
					op, ok := sys.Poised(pid)
					s += fmt.Sprintf("%d:%v %s %v|", pid, ok, renderOp(&op), sys.Live(pid))
				}
				return s
			}
			// A fork's terminal slot holds no stepper of its own, so only
			// the live processes' steppers are read directly.
			steppers := func(sys *sim.System) string {
				s := ""
				for pid := 0; pid < sys.N(); pid++ {
					if sys.Live(pid) {
						s += renderOp(sys.Stepper(pid).Poise())
					}
					s += "|"
				}
				return s
			}
			want, wantSt := poises(root), steppers(root)
			src, err := root.Fork()
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						fk, err := src.Fork()
						if err != nil {
							t.Error(err)
							return
						}
						got, shared, direct := poises(fk), poises(src), steppers(src)
						fk.Close()
						if got != want || shared != want || direct != wantSt {
							t.Errorf("poise read concurrently with forks:\nfork   %s\nsource %s\nwant   %s\nsteppers %s\nwant     %s",
								got, shared, want, direct, wantSt)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
