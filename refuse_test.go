package repro

import (
	"context"
	"errors"
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/lowerbound"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestBodySystemsRefused pins the refusal contract at every public entry
// that explores: a system on the coroutine Body adapter cannot fork, so
// explore.Exhaustive, explore.CanDecide (at any extraDepth, 0 included),
// lowerbound.(*Config).Bivalent and Verify on a Body-form handle all fail
// with sim.ErrNotForkable, before any walk. The one-process system is the
// sharp case: each of its configurations has one successor, so a walk
// would never fork it and a refusal at the first fork would never come.
// Running a Body system stays possible: Materialize reaches its
// configurations by replaying the schedule.
func TestBodySystemsRefused(t *testing.T) {
	solo := func() (*sim.System, error) {
		return sim.NewSystem(machine.New(machine.SetReadWrite, 1), []int{0}, readThrice), nil
	}
	pair := func() (*sim.System, error) {
		return sim.NewSystem(machine.New(machine.SetReadWrite, 1), []int{0, 1}, readThrice), nil
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, sim.ErrNotForkable) {
			t.Fatalf("%s: err = %v, want sim.ErrNotForkable", what, err)
		}
	}
	for name, f := range map[string]explore.Factory{"one-process": solo, "two-process": pair} {
		for _, opts := range []explore.Options{
			{MaxDepth: 3}, {MaxDepth: 3, Dedup: true}, {MaxDepth: 3, Workers: 2}, {MaxDepth: 3, SoloBudget: 5},
		} {
			_, err := explore.Exhaustive(context.Background(), f, opts)
			refused(name+" Exhaustive", err)
		}
		for _, extra := range []int{0, 3} {
			_, err := explore.CanDecide(f, nil, []int{0}, 0, extra)
			refused(name+" CanDecide", err)
			_, err = lowerbound.At(f).Bivalent([]int{0}, extra)
			refused(name+" Bivalent", err)
		}
		sys, err := lowerbound.At(f, 0).Materialize()
		if err != nil {
			t.Fatalf("%s Materialize: %v", name, err)
		}
		if sys.Steps() != 1 {
			t.Fatalf("%s Materialize: %d steps, want 1", name, sys.Steps())
		}
		sys.Close()
	}
	for _, tc := range []struct {
		row string
		n   int
	}{{"T1.1", 1}, {"T1.5", 3}} {
		p, err := compileBody(tc.row, tc.n, readThrice)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Verify(context.Background(), make([]int, tc.n), 3)
		refused(tc.row+" Body-form Verify", err)
	}
}

// readThrice is a small Body for the systems that must run on the coroutine
// adapter: it reads location 0 three times and decides its input.
func readThrice(p *sim.Proc) int {
	for i := 0; i < 3; i++ {
		p.Apply(0, machine.OpRead)
	}
	return p.Input()
}

// compileBody is Compile with body, run on the coroutine adapter, in place of
// the row's steppers in every protocol the handle builds.
func compileBody(row string, n int, body sim.Body) (*Protocol, error) {
	p, err := Compile(row, n)
	if err != nil {
		return nil, err
	}
	build := p.build
	p.build = func() *consensus.Protocol {
		pr := build()
		pr.Body, pr.Steppers = body, nil
		return pr
	}
	p.pr = p.build()
	return p, nil
}
