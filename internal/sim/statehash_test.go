package sim

// Differential battery for the incremental StateHash128: at every
// configuration of a forking walk — after steps, forks, crashes, and
// process failures — the cached-aggregate hash must equal the streamed
// from-scratch reference, (value, ok) both. The walk deliberately
// interleaves queries with mutations so stale-cache bookkeeping errors
// (a contribution XORed out twice, a dirty pid dropped on Fork) cannot
// hide behind a single end-of-run comparison.

import (
	"testing"

	"repro/internal/machine"
)

// streamedStateHash128 recomputes StateHash128 from scratch, stepper by
// stepper, ignoring every cache. It is the reference implementation the
// differential battery pins the incremental path against at each point of a
// portfolio walk (steps, forks, crashes, failures); it must combine exactly
// as StateHash128 does.
func (s *System) streamedStateHash128() (fp machine.Hash128, ok bool) {
	if s.closed {
		return machine.Hash128{}, false
	}
	var aggLo, aggHi uint64
	for pid, ps := range s.procs {
		lo, hi, keyed := procHashContribution(pid, ps)
		if !keyed {
			return machine.Hash128{}, false
		}
		aggLo ^= lo
		aggHi ^= hi
	}
	mfp := s.mem.Fingerprint128()
	h := machine.SeedHash128().Word(mfp.Lo).Word(mfp.Hi).Word(aggLo).Word(aggHi)
	if s.hasChans() {
		h = h.Word(uint64(s.dropsUsed))
	}
	return h, true
}

// hashStepper is a minimal native-forking keyed stepper: it increments one
// of two locations n times, folding every result into its local state.
type hashStepper struct {
	n   int
	acc uint64
}

// incOps are hashStepper's two instructions, shared and never written.
var incOps = [2]OpInfo{{Loc: 0, Op: machine.OpIncrement}, {Loc: 1, Op: machine.OpIncrement}}

func (s *hashStepper) Poise() *OpInfo {
	if s.n <= 0 {
		return nil
	}
	return &incOps[s.n%2]
}

func (s *hashStepper) Resume(res machine.Value) bool {
	s.acc = machine.Mix64(s.acc ^ machine.HashValue(res))
	s.n--
	return s.n <= 0
}

func (s *hashStepper) Outcome() (bool, int, error) { return s.n <= 0, 0, nil }
func (s *hashStepper) Halt()                       {}
func (s *hashStepper) ForkInto(Stepper) Stepper    { f := *s; return &f }
func (s *hashStepper) StateKey() uint64            { return machine.Mix64(uint64(s.n)<<8 ^ s.acc) }

// checkHash compares the incremental hash against the streamed reference.
func checkHash(t *testing.T, sys *System, where string) {
	t.Helper()
	inc, okInc := sys.StateHash128()
	ref, okRef := sys.streamedStateHash128()
	if okInc != okRef || inc != ref {
		t.Fatalf("%s: incremental (%+v, %v) != streamed (%+v, %v)", where, inc, okInc, ref, okRef)
	}
}

// hashWalk forks off every live process's step plus a crash branch,
// re-checking the differential at each configuration.
func hashWalk(t *testing.T, sys *System, depth int) {
	t.Helper()
	checkHash(t, sys, "node")
	if depth == 0 {
		return
	}
	for _, pid := range sys.LiveSet() {
		fk, err := sys.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fk.Step(pid); err != nil {
			t.Fatal(err)
		}
		hashWalk(t, fk, depth-1)
		fk.Close()
	}
	if live := sys.LiveSet(); len(live) > 0 {
		fk, err := sys.Fork()
		if err != nil {
			t.Fatal(err)
		}
		fk.Crash(live[0])
		hashWalk(t, fk, depth-1)
		fk.Close()
	}
	// The parent is queried again after the children detach: forked-off
	// mutations must never have leaked into its caches.
	checkHash(t, sys, "node-after-children")
}

// TestStateHash128Differential drives the incremental hash through native
// steppers: the increment spinners and the race protocol's stepper twin.
func TestStateHash128Differential(t *testing.T) {
	t.Run("steppers", func(t *testing.T) {
		mem := machine.New(machine.NewInstrSet("t", machine.OpIncrement), 2)
		sys := NewSystemSteppers(mem, []int{0, 1},
			[]Stepper{&hashStepper{n: 3}, &hashStepper{n: 3}})
		defer sys.Close()
		hashWalk(t, sys, 4)
	})
	t.Run("body", func(t *testing.T) { // raceBody's stepper twin
		sys := raceSystem(2)
		defer sys.Close()
		hashWalk(t, sys, 3)
	})
}

// TestStateHash128FailedProcess: a planted step failure must flow into the
// stale-tracking like any other transition (the 'e' status contribution),
// keeping the differential exact afterwards.
func TestStateHash128FailedProcess(t *testing.T) {
	mem := machine.New(machine.NewInstrSet("t", machine.OpIncrement), 1)
	// Location 1 is out of range on a 1-location memory, so the stepper's
	// second poise fails its Step.
	sys := NewSystemSteppers(mem, []int{0, 1},
		[]Stepper{&hashStepper{n: 4}, &hashStepper{n: 4}})
	defer sys.Close()
	checkHash(t, sys, "initial")
	for _, pid := range []int{0, 1, 0, 1} {
		if _, err := sys.Step(pid); err == nil {
			checkHash(t, sys, "after step")
		} else {
			checkHash(t, sys, "after failed step")
		}
	}
}

// TestStateHash128Unkeyed: systems AppendStateKey rejects — a live process
// without a StateKeyer, such as a Body process — must report ok=false from
// both paths, and from the full-key path too.
func TestStateHash128Unkeyed(t *testing.T) {
	mem := machine.New(machine.SetCAS, 1)
	plain := NewSystemSteppers(mem, []int{0, 1},
		[]Stepper{newCASStepper(0), newCASStepper(1)})
	defer plain.Close()
	if _, ok := plain.StateHash128(); ok {
		t.Fatal("keyless stepper must yield no state hash")
	}
	if _, ok := plain.streamedStateHash128(); ok {
		t.Fatal("keyless stepper must yield no streamed hash either")
	}

	body := NewSystem(forkTestMem(), []int{0, 0}, raceBody)
	defer body.Close()
	if _, err := body.Step(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := body.StateHash128(); ok {
		t.Fatal("Body system must yield no state hash")
	}
	if _, ok := body.StateKey(); ok {
		t.Fatal("Body system must yield no state key")
	}
	checkHash(t, body, "body")
}
