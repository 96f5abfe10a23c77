package sim

// The pre-VM goroutine engine, kept as a test oracle: the determinism suite
// drives it and the coroutine adapter over seed sweeps and requires
// step-for-step identical traces, and BenchmarkEngineSteps uses it as the
// step-throughput baseline.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/machine"
)

// systemBuilder is the shape of NewSystem and newGoroutineSystem, so a test
// can run one scenario on either engine.
type systemBuilder func(*machine.Memory, []int, Body, ...SystemOption) *System

// newGoroutineSystem is NewSystem with every process on the goroutine
// engine.
func newGoroutineSystem(mem *machine.Memory, inputs []int, body Body, opts ...SystemOption) *System {
	s := newSystem(mem, inputs, opts)
	for i := range inputs {
		s.adopt(i, newGoroutineStepper(i, len(inputs), inputs[i], &s.steps, body))
	}
	return s
}

// goroutineStepper adapts a Body onto the Stepper interface the way the
// pre-VM engine did: the body runs on its own goroutine and every poise
// point costs two channel handoffs and a scheduler round trip.
type goroutineStepper struct {
	req      chan OpInfo
	resp     chan machine.Value
	done     chan goroutineOutcome
	kill     chan struct{}
	killOnce sync.Once
	wg       sync.WaitGroup

	cur      OpInfo
	finished bool
	decided  bool
	decision int
	err      error
}

type goroutineOutcome struct {
	decision int
	err      error
}

// newGoroutineStepper launches body on a goroutine and blocks until it is
// poised on its first instruction (or has finished).
func newGoroutineStepper(id, n, input int, clock *int64, body Body) *goroutineStepper {
	g := &goroutineStepper{
		req:  make(chan OpInfo),
		resp: make(chan machine.Value),
		done: make(chan goroutineOutcome, 1),
		kill: make(chan struct{}),
	}
	p := &Proc{id: id, n: n, input: input, clock: clock}
	p.submit = func(info OpInfo) machine.Value {
		select {
		case g.req <- info:
		case <-g.kill:
			panic(errKilled)
		}
		select {
		case v := <-g.resp:
			return v
		case <-g.kill:
			panic(errKilled)
		}
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok && errors.Is(err, errKilled) {
					return // orderly shutdown
				}
				g.done <- goroutineOutcome{err: fmt.Errorf("sim: process %d failed: %v", id, r)}
			}
		}()
		v := body(p)
		g.done <- goroutineOutcome{decision: v}
	}()
	g.await()
	return g
}

// await blocks until the body has either submitted its next instruction or
// finished, and records which.
func (g *goroutineStepper) await() {
	select {
	case info := <-g.req:
		g.cur = info
	case o := <-g.done:
		g.finished = true
		if o.err != nil {
			g.err = o.err
		} else {
			g.decided, g.decision = true, o.decision
		}
	}
}

func (g *goroutineStepper) Poise() *OpInfo {
	if g.finished {
		return nil
	}
	return &g.cur
}

func (g *goroutineStepper) Resume(res machine.Value) bool {
	g.resp <- res
	g.await()
	return g.finished
}

func (g *goroutineStepper) Outcome() (bool, int, error) {
	return g.decided, g.decision, g.err
}

func (g *goroutineStepper) Halt() {
	g.killOnce.Do(func() { close(g.kill) })
	g.finished = true
	g.wg.Wait()
}

// benchEngineSteps measures raw steady-state step throughput of one
// execution engine: four processes spinning on shared counters, stepped
// round-robin. This is the microbenchmark behind the step-VM refactor — the
// goroutine engine pays two channel handoffs and a scheduler round trip per
// step, the VM a single coroutine switch.
func benchEngineSteps(b *testing.B, build systemBuilder) {
	b.Helper()
	mem := machine.New(machine.NewInstrSet("bench", machine.OpRead, machine.OpIncrement), 2)
	spin := func(p *Proc) int {
		for {
			p.Apply(0, machine.OpIncrement)
			p.Apply(1, machine.OpRead)
		}
	}
	sys := build(mem, make([]int, 4), spin)
	defer sys.Close()
	sched := &RoundRobin{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(sched.Next(sys)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

func BenchmarkEngineSteps_VM(b *testing.B)        { benchEngineSteps(b, NewSystem) }
func BenchmarkEngineSteps_Goroutine(b *testing.B) { benchEngineSteps(b, newGoroutineSystem) }
