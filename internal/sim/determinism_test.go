package sim

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/machine"
)

// raceBody is a small nondeterministic-looking (but deterministic) protocol
// used to pin determinism: increments and reads over two locations.
func raceBody(p *Proc) int {
	for i := 0; i < 4; i++ {
		p.Apply(p.ID()%2, machine.OpIncrement)
		p.Apply((p.ID()+1)%2, machine.OpRead)
	}
	v := machine.MustInt(p.Apply(0, machine.OpRead))
	return int(v.Int64()) % 2
}

func traceString(tr []StepInfo) string {
	out := ""
	for _, st := range tr {
		out += fmt.Sprintf("%d:%v;", st.PID, st.Info)
	}
	return out
}

// TestReplayDeterminism records a run's schedule, replays it via Script on
// a fresh system, and requires the step-for-step identical trace — the
// property the explorer, the adversaries, and the lower-bound machinery all
// rest on.
func TestReplayDeterminism(t *testing.T) {
	mem1 := machine.New(machine.NewInstrSet("t", machine.OpRead, machine.OpIncrement), 2)
	sys1 := NewSystem(mem1, []int{0, 0, 0}, raceBody, WithTrace())
	if _, err := sys1.Run(NewRandom(99), 10_000); err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, st := range sys1.Trace() {
		pids = append(pids, st.PID)
	}
	want := traceString(sys1.Trace())
	wantDec := sys1.Decisions()
	sys1.Close()

	mem2 := machine.New(machine.NewInstrSet("t", machine.OpRead, machine.OpIncrement), 2)
	sys2 := NewSystem(mem2, []int{0, 0, 0}, raceBody, WithTrace())
	defer sys2.Close()
	if _, err := sys2.Run(&Script{PIDs: pids}, 10_000); err != nil {
		t.Fatal(err)
	}
	if got := traceString(sys2.Trace()); got != want {
		t.Fatalf("replay diverged:\nwant %s\ngot  %s", want, got)
	}
	for pid, d := range wantDec {
		if got, ok := sys2.Decided(pid); !ok || got != d {
			t.Fatalf("replay decision mismatch for %d", pid)
		}
	}
	if mem1.Fingerprint() != mem2.Fingerprint() {
		t.Fatal("replay memory diverged")
	}
}

// TestEngineEquivalenceSweep drives the step-VM (coroutine) engine and the
// legacy goroutine engine over the same protocols, schedules, and crash
// injections across a seed sweep, and requires step-for-step identical
// traces, identical decisions, and identical final memory. This is the
// differential oracle justifying the engine swap: every consumer of sim
// observes exactly the behavior the goroutine engine produced. Each
// protocol's stepper twin, which the fork and key tests run on because the
// Body adapter does not fork, is held to the same traces.
func TestEngineEquivalenceSweep(t *testing.T) {
	protocols := []struct {
		name   string
		set    machine.InstrSet
		locs   int
		inputs []int
		body   Body
		twin   func(inputs []int) []Stepper
	}{
		{"race-increment", machine.NewInstrSet("t", machine.OpRead, machine.OpIncrement), 2,
			[]int{0, 0, 0}, raceBody, func(in []int) []Stepper { return raceSteppers(len(in)) }},
		{"cas-consensus", machine.SetCAS, 1, []int{3, 1, 2, 0}, casBody, func(in []int) []Stepper {
			out := make([]Stepper, len(in))
			for i, x := range in {
				out[i] = newCASStepper(x)
			}
			return out
		}},
	}
	for _, pr := range protocols {
		t.Run(pr.name, func(t *testing.T) {
			twinSystem := func(mem *machine.Memory, inputs []int, _ Body, opts ...SystemOption) *System {
				return NewSystemSteppers(mem, inputs, pr.twin(inputs), opts...)
			}
			for seed := int64(1); seed <= 25; seed++ {
				run := func(newSys systemBuilder, crashP float64) (string, map[int]int, string) {
					mem := machine.New(pr.set, pr.locs)
					sys := newSys(mem, pr.inputs, pr.body, WithTrace())
					defer sys.Close()
					var sched Scheduler = NewRandom(seed)
					if crashP > 0 {
						sched = NewRandomCrash(sched, crashP, seed+500)
					}
					if _, err := sys.Run(sched, 10_000); err != nil {
						t.Fatal(err)
					}
					return traceString(sys.Trace()), sys.Decisions(), mem.Fingerprint()
				}
				for _, crashP := range []float64{0, 0.05} {
					vmTrace, vmDec, vmMem := run(NewSystem, crashP)
					for _, other := range []struct {
						name  string
						build systemBuilder
					}{{"go", newGoroutineSystem}, {"twin", twinSystem}} {
						trace, dec, mem := run(other.build, crashP)
						if vmTrace != trace {
							t.Fatalf("seed %d crash %.2f: %s trace diverged\nvm: %s\n%s: %s",
								seed, crashP, other.name, vmTrace, other.name, trace)
						}
						if !maps.Equal(vmDec, dec) {
							t.Fatalf("seed %d: decisions diverged: vm %v %s %v", seed, vmDec, other.name, dec)
						}
						if vmMem != mem {
							t.Fatalf("seed %d: final memory diverged:\nvm %s\n%s %s", seed, vmMem, other.name, mem)
						}
					}
				}
			}
		})
	}
}

// TestEngineEquivalenceReplay: a schedule recorded on one engine replays
// step-for-step identically on the other.
func TestEngineEquivalenceReplay(t *testing.T) {
	mem1 := machine.New(machine.NewInstrSet("t", machine.OpRead, machine.OpIncrement), 2)
	sys1 := newGoroutineSystem(mem1, []int{0, 0, 0}, raceBody, WithTrace())
	if _, err := sys1.Run(NewRandom(7), 10_000); err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, st := range sys1.Trace() {
		pids = append(pids, st.PID)
	}
	want := traceString(sys1.Trace())
	sys1.Close()

	mem2 := machine.New(machine.NewInstrSet("t", machine.OpRead, machine.OpIncrement), 2)
	sys2 := NewSystem(mem2, []int{0, 0, 0}, raceBody, WithTrace()) // the step-VM
	defer sys2.Close()
	if _, err := sys2.Run(&Script{PIDs: pids}, 10_000); err != nil {
		t.Fatal(err)
	}
	if got := traceString(sys2.Trace()); got != want {
		t.Fatalf("cross-engine replay diverged:\nwant %s\ngot  %s", want, got)
	}
	if mem1.Fingerprint() != mem2.Fingerprint() {
		t.Fatal("cross-engine replay memory diverged")
	}
}

// TestScriptSkipsDeadProcesses: scripted schedules silently skip entries
// whose process has finished or crashed.
func TestScriptSkipsDeadProcesses(t *testing.T) {
	mem := machine.New(machine.SetReadWrite, 1)
	oneShot := func(p *Proc) int {
		p.Apply(0, machine.OpRead)
		return p.ID()
	}
	sys := NewSystem(mem, []int{0, 0}, oneShot)
	defer sys.Close()
	sys.Crash(1)
	res, err := sys.Run(&Script{PIDs: []int{1, 0, 1, 0, 1}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Decisions[1]; ok {
		t.Fatal("crashed process decided")
	}
	if d, ok := res.Decisions[0]; !ok || d != 0 {
		t.Fatalf("process 0 result %v", res.Decisions)
	}
}

// TestLiveSetAndInputs covers accessors.
func TestLiveSetAndInputs(t *testing.T) {
	mem := machine.New(machine.SetReadWrite, 1)
	sys := NewSystem(mem, []int{7, 8, 9}, func(p *Proc) int {
		p.Apply(0, machine.OpRead)
		return p.Input()
	})
	defer sys.Close()
	in := sys.Inputs()
	if len(in) != 3 || in[2] != 9 {
		t.Fatalf("inputs %v", in)
	}
	live := sys.LiveSet()
	if len(live) != 3 {
		t.Fatalf("live %v", live)
	}
	sys.Crash(0)
	if sys.Live(0) {
		t.Fatal("crashed still live")
	}
	if got := len(sys.LiveSet()); got != 2 {
		t.Fatalf("live after crash: %d", got)
	}
	// Crashing twice is a no-op.
	sys.Crash(0)
}
