package explore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file is the delivery differential battery: message-passing systems —
// where pending-message choices are scheduler branches like any other — must
// explore byte-identically to the one-worker walk across the replay oracle,
// worker counts, dedup, symmetry, and compacted tables, under every delivery
// mode. The explorers themselves have no channel-specific code; these tests
// pin that the branch-point encoding (virtual delivery pids) composes with
// every exploration feature unchanged.

// chanInstance is one channel-bearing exploration workload.
type chanInstance struct {
	name      string
	build     func() *consensus.Protocol
	inputs    []int
	prefix    []int // steps replayed before exploring (plants Byzantine attacks)
	opts      []sim.SystemOption
	depth     int
	violating bool // a planted violation is reachable within depth
}

// deliveryForkPrefix replays the equivocation attack of the scenario
// portfolio up to four steps before the split-brain: the Byzantine process 2
// script-sends, the honest processes broadcast phase 1, honest 0 is fed the
// forked messages and decides 0, honest 1 goes ready for 1. Every delivery
// in the prefix is rank 0, so it replays under all three modes.
func deliveryForkPrefix(pr *consensus.Protocol) []int {
	d0, d1 := pr.N, pr.N+pr.Channels[0].Cap
	p := []int{2, 2, 2, 2, 0, 0, 1, 1}
	p = append(p, d0, 0, 0, 0, d0, 0, 0, 0)
	p = append(p, d1, 1, 1, 1)
	return p
}

func chanInstances() []chanInstance {
	qsc2 := func() *consensus.Protocol { return consensus.QSCConfig(2, 2, 2) }
	qsc3 := func() *consensus.Protocol { return consensus.QSCConfig(3, 2, 2) }
	byzFork := func() *consensus.Protocol {
		return consensus.QSCWithByzantine(3, 2, 4, consensus.QSCByzFork)
	}
	mode := func(d sim.Delivery) []sim.SystemOption { return []sim.SystemOption{sim.WithDelivery(d)} }
	var out []chanInstance
	out = append(out,
		chanInstance{name: "qsc2-ordered", build: qsc2, inputs: []int{1, 0}, depth: 6},
		chanInstance{name: "qsc2-reorder", build: qsc2, inputs: []int{1, 0},
			opts: mode(sim.Delivery{Mode: sim.DeliverReorder}), depth: 6},
		chanInstance{name: "qsc2-lossy", build: qsc2, inputs: []int{1, 0},
			opts: mode(sim.Delivery{Mode: sim.DeliverLossy, MaxDrops: 1}), depth: 5},
		chanInstance{name: "qsc3-ordered", build: qsc3, inputs: []int{2, 0, 1}, depth: 5},
		chanInstance{name: "qsc3-reorder", build: qsc3, inputs: []int{2, 0, 1},
			opts: mode(sim.Delivery{Mode: sim.DeliverReorder}), depth: 4},
	)
	for _, m := range []struct {
		tag string
		d   sim.Delivery
	}{
		{"ordered", sim.Delivery{Mode: sim.DeliverOrdered}},
		{"reorder", sim.Delivery{Mode: sim.DeliverReorder}},
		{"lossy", sim.Delivery{Mode: sim.DeliverLossy, MaxDrops: 1}},
	} {
		out = append(out, chanInstance{
			name:      "byz-fork-" + m.tag,
			build:     byzFork,
			inputs:    []int{0, 1, 0},
			prefix:    deliveryForkPrefix(byzFork()),
			opts:      mode(m.d),
			depth:     5,
			violating: true,
		})
	}
	return out
}

func (ci chanInstance) factory() Factory {
	return func() (*sim.System, error) {
		sys, err := ci.build().NewSystem(ci.inputs, ci.opts...)
		if err != nil {
			return nil, err
		}
		for _, pid := range ci.prefix {
			if _, err := sys.Step(pid); err != nil {
				sys.Close()
				return nil, fmt.Errorf("prefix pid %d: %w", pid, err)
			}
		}
		return sys, nil
	}
}

// oneWorkerReports memoizes chanInstance.oneWorker across the delivery
// tests and their -count/-cpu repetitions.
var oneWorkerReports sync.Map // string -> *Report

// oneWorker returns the one-worker Report of the instance under opts,
// computed once per test binary: the one-worker walk runs on the calling
// goroutine and is deterministic, so repeating it checks nothing new, while
// the undeduplicated Byzantine trees are the largest in the package (605k
// configurations for byz-fork-lossy) and the slowest to walk under -race.
func (ci chanInstance) oneWorker(t *testing.T, opts Options) *Report {
	t.Helper()
	key := fmt.Sprintf("%s %+v", ci.name, opts)
	if rep, ok := oneWorkerReports.Load(key); ok {
		return rep.(*Report)
	}
	rep := run(t, ci.factory(), opts)
	oneWorkerReports.Store(key, rep)
	return rep
}

// TestDeliveryDifferential: the full cross-product. Two and four workers
// against the one-worker walk, byte-identical with and without dedup and
// symmetry, for every channel-bearing instance under every delivery mode —
// including the prefixed Byzantine fork attack, whose violations pin verdict
// and witness ordering. Workers 1 is left out: it takes the one-worker path
// the oracle already ran.
func TestDeliveryDifferential(t *testing.T) {
	for _, ci := range chanInstances() {
		ci := ci
		t.Run(ci.name, func(t *testing.T) {
			f := ci.factory()
			for _, dedup := range []bool{false, true} {
				for _, sym := range []bool{false, true} {
					opts := Options{MaxDepth: ci.depth, Dedup: dedup, Symmetry: sym}
					rep := ci.oneWorker(t, opts)
					batteryAgainst(t, rep, f, opts, []int{2, 4})
					if found := len(rep.Violations) > 0; found != ci.violating {
						t.Fatalf("dedup=%v sym=%v: violations %v, planted %v", dedup, sym, rep.Violations, ci.violating)
					}
				}
			}
		})
	}
}

// TestSoloBudgetRefusesChannels: solo probes on a channel system are refused
// before the walk, with the root closed. The probe used to reach the
// delivery pids through the live set and panic indexing them as processes.
func TestSoloBudgetRefusesChannels(t *testing.T) {
	for _, d := range []sim.Delivery{{Mode: sim.DeliverOrdered}, {Mode: sim.DeliverLossy, MaxDrops: 1}} {
		var root *sim.System
		f := func() (*sim.System, error) {
			sys, err := consensus.QSC(2).NewSystem([]int{0, 1}, sim.WithDelivery(d))
			root = sys
			return sys, err
		}
		rep, err := Exhaustive(context.Background(), f, Options{MaxDepth: 5, SoloBudget: 200, Dedup: true})
		if !errors.Is(err, ErrSoloOnChannels) {
			t.Fatalf("%v: Exhaustive = %+v, %v; want ErrSoloOnChannels", d.Mode, rep, err)
		}
		if _, err := root.Fork(); !errors.Is(err, sim.ErrClosed) {
			t.Errorf("%v: refused root not closed (Fork: %v)", d.Mode, err)
		}
		if _, err := Exhaustive(context.Background(), f, Options{MaxDepth: 5, Dedup: true}); err != nil {
			t.Fatalf("%v: without solo probes: %v", d.Mode, err)
		}
	}
}

// TestDeliveryReplayMatchesFork: the replay oracle re-executes schedules
// through fresh systems — including the delivery adversary's moves — and
// must reproduce the fork-based walk exactly.
func TestDeliveryReplayMatchesFork(t *testing.T) {
	for _, ci := range chanInstances() {
		ci := ci
		t.Run(ci.name, func(t *testing.T) {
			f := ci.factory()
			for _, sym := range []bool{false, true} {
				opts := Options{MaxDepth: ci.depth, Dedup: true, Symmetry: sym}
				fork, rep := ci.oneWorker(t, opts), runReplay(t, f, opts)
				if !reflect.DeepEqual(stripMem(rep), stripMem(fork)) {
					t.Fatalf("sym=%v: replay diverged\nfork   %+v\nreplay %+v", sym, fork, rep)
				}
			}
		})
	}
}

// TestDeliveryCompactMatchesExact: the compacted seen-state tables key
// channel systems through StateHash128, which folds channel contents and
// the consumed drop budget; their reports must match the exact table's.
func TestDeliveryCompactMatchesExact(t *testing.T) {
	for _, ci := range chanInstances() {
		ci := ci
		t.Run(ci.name, func(t *testing.T) {
			f := ci.factory()
			exact := ci.oneWorker(t, Options{MaxDepth: ci.depth, Dedup: true})
			for _, mode := range []Table{TableCompact, TableCompact128} {
				compact := run(t, f, Options{MaxDepth: ci.depth, Dedup: true, Table: mode})
				if !reflect.DeepEqual(stripApprox(compact), stripApprox(exact)) {
					t.Fatalf("%v: compacted run diverged\nexact   %+v\ncompact %+v", mode, exact, compact)
				}
			}
		})
	}
}

// chanFuzzOp is one instruction of a shared random channel program.
type chanFuzzOp struct {
	send bool
	loc  int // send target; receives always read the process's own inbox
	val  int64
	info sim.OpInfo // the send, for a send
}

func newChanFuzzOp(send bool, loc int, val int64) chanFuzzOp {
	op := chanFuzzOp{send: send, loc: loc, val: val}
	if send {
		op.info = sim.Send(loc, machine.Int(val))
	}
	return op
}

// chanFuzzStepper runs a shared random program of sends and receives; the
// hash of received values is genuine local state, so dedup keys must
// distinguish processes whose inboxes delivered different histories.
type chanFuzzStepper struct {
	id, n int
	prog  []chanFuzzOp
	recv  sim.OpInfo // the receive from the own inbox
	pos   int
	rcv   uint64
}

func newChanFuzzStepper(id, n int, prog []chanFuzzOp) *chanFuzzStepper {
	return &chanFuzzStepper{id: id, n: n, prog: prog, recv: sim.Recv(id)}
}

func (s *chanFuzzStepper) Poise() *sim.OpInfo {
	if s.pos >= len(s.prog) {
		return nil
	}
	if op := &s.prog[s.pos]; op.send {
		return &op.info
	}
	return &s.recv
}

func (s *chanFuzzStepper) Resume(res machine.Value) bool {
	if !s.prog[s.pos].send {
		s.rcv = machine.Mix64(s.rcv ^ machine.HashValue(res))
	}
	s.pos++
	return s.pos >= len(s.prog)
}

func (s *chanFuzzStepper) Outcome() (bool, int, error) { return s.pos >= len(s.prog), 0, nil }
func (s *chanFuzzStepper) Halt()                       {}

func (s *chanFuzzStepper) ForkInto(sim.Stepper) sim.Stepper {
	f := *s
	return &f
}

func (s *chanFuzzStepper) StateKey() uint64 {
	h := machine.Mix64(uint64(int64(s.id)) ^ 0x6366757a)
	h = machine.Mix64(h ^ uint64(int64(s.pos)))
	return machine.Mix64(h ^ s.rcv)
}

// SymStateKey folds the process's inbox and every program target through
// the relabeling — the full channel-location future-reference set.
func (s *chanFuzzStepper) SymStateKey(relabel func(int) int) uint64 {
	h := s.StateKey()
	h = machine.Mix64(h ^ uint64(relabel(s.id)))
	for _, op := range s.prog {
		if op.send {
			h = machine.Mix64(h ^ uint64(relabel(op.loc)))
		}
	}
	return h
}

// TestSymmetryFuzzChannels extends the over-merge hunter to channel-bearing
// configurations: seeded random shared programs of sends and receives over
// per-process inboxes, random channel kinds and delivery modes. Symmetric
// exploration must preserve the decided set and the violation-free verdict
// and never increase the orbit count; a key that over-merged two distinct
// pending-message multisets would perturb one of those invariants across 30
// irregular state graphs.
func TestSymmetryFuzzChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(2)
		plen := 3 + rng.Intn(3)
		prog := make([]chanFuzzOp, plen)
		for i := range prog {
			send := rng.Intn(3) > 0 // sends dominate so channels fill
			loc := rng.Intn(n)
			prog[i] = newChanFuzzOp(send, loc, int64(rng.Intn(3)))
		}
		kind := machine.ChanFIFO
		if rng.Intn(2) == 0 {
			kind = machine.ChanBag
		}
		deliver := []sim.Delivery{
			{Mode: sim.DeliverOrdered},
			{Mode: sim.DeliverReorder},
			{Mode: sim.DeliverLossy, MaxDrops: 1},
		}[rng.Intn(3)]
		f := func() (*sim.System, error) {
			specs := make([]machine.ChannelSpec, n)
			for i := range specs {
				specs[i] = machine.ChannelSpec{Loc: i, Kind: kind, Cap: plen * n}
			}
			steppers := make([]sim.Stepper, n)
			for p := range steppers {
				steppers[p] = newChanFuzzStepper(p, n, prog)
			}
			mem := machine.New(machine.SetChannels, n, machine.WithChannels(specs))
			return sim.NewSystemSteppers(mem, make([]int, n), steppers,
				sim.WithDelivery(deliver)), nil
		}
		depth := 4 + rng.Intn(2)
		wk := 1 + rng.Intn(4)
		t.Run(fmt.Sprintf("iter%02d-n%d-%v-%v-depth%d", iter, n, kind, deliver.Mode, depth), func(t *testing.T) {
			exact := run(t, f, Options{MaxDepth: depth, Dedup: true})
			symSeq := run(t, f, Options{MaxDepth: depth, Dedup: true, Symmetry: true})
			symPar := run(t, f, Options{MaxDepth: depth, Workers: wk, Dedup: true, Symmetry: true})
			if !slices.Equal(symSeq.DecidedValues, exact.DecidedValues) {
				t.Fatalf("decided values %v with symmetry, %v without", symSeq.DecidedValues, exact.DecidedValues)
			}
			if len(symSeq.Violations) != len(exact.Violations) {
				t.Fatalf("violation count changed under symmetry: %d vs %d", len(symSeq.Violations), len(exact.Violations))
			}
			if symSeq.DistinctStates > exact.DistinctStates {
				t.Fatalf("orbits %d exceed %d exact states", symSeq.DistinctStates, exact.DistinctStates)
			}
			if !reflect.DeepEqual(stripMem(symPar), stripMem(symSeq)) {
				t.Fatalf("workers=%d symmetric run diverged:\none  %+v\nmany %+v", wk, symSeq, symPar)
			}
		})
	}
}

// TestChannelPendingOrderKeys pins the pending-encoding at the key level:
// with the same local stepper states, a FIFO channel holding [1,2] must key
// differently from [2,1] (order is state), while a bag channel holding the
// same multiset must key identically (order is not) — under both the exact
// canonical key and the symmetric quotient key.
func TestChannelPendingOrderKeys(t *testing.T) {
	build := func(kind machine.ChanKind) *sim.System {
		specs := []machine.ChannelSpec{
			{Loc: 0, Kind: kind, Cap: 4},
			{Loc: 1, Kind: kind, Cap: 4},
		}
		prog0 := []chanFuzzOp{newChanFuzzOp(true, 0, 1)}
		prog1 := []chanFuzzOp{newChanFuzzOp(true, 0, 2)}
		mem := machine.New(machine.SetChannels, 2, machine.WithChannels(specs))
		return sim.NewSystemSteppers(mem, []int{0, 0}, []sim.Stepper{
			newChanFuzzStepper(0, 2, prog0),
			newChanFuzzStepper(1, 2, prog1),
		})
	}
	for _, kind := range []machine.ChanKind{machine.ChanFIFO, machine.ChanBag} {
		a := build(kind) // sends arrive as [1, 2]
		b := build(kind) // sends arrive as [2, 1]
		for _, pid := range []int{0, 1} {
			if _, err := a.Step(pid); err != nil {
				t.Fatal(err)
			}
		}
		for _, pid := range []int{1, 0} {
			if _, err := b.Step(pid); err != nil {
				t.Fatal(err)
			}
		}
		ka, ok := a.StateKey()
		if !ok {
			t.Fatalf("%v: no state key", kind)
		}
		kb, _ := b.StateKey()
		sa, ok := a.SymStateKey()
		if !ok {
			t.Fatalf("%v: no symmetric key", kind)
		}
		sb, _ := b.SymStateKey()
		if kind == machine.ChanFIFO && (ka == kb || sa == sb) {
			t.Fatalf("FIFO pending [1,2] and [2,1] merged: key %v/%v, sym %v/%v", ka, kb, sa, sb)
		}
		if kind == machine.ChanBag && (ka != kb || sa != sb) {
			t.Fatalf("bag pending {1,2} keyed order-sensitively: key %v/%v, sym %v/%v", ka, kb, sa, sb)
		}
		a.Close()
		b.Close()
	}
}
