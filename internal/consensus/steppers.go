package consensus

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file ports the protocol bodies to explicit forkable state machines
// (sim.Stepper + sim.Forker + sim.StateKeyer): the CAS, introduction,
// max-register, racing-counter and Lemma 5.2 multi-valued protocols. The
// racing loops run over every counter machine, the unbounded tracks (T1.1)
// and the register arrays of T1.3, T1.6 and T1.MA included; Algorithm 1's
// stepper (T1.5) sits beside its Body in swap.go. Every Table 1 row runs on
// these steppers. Each issues the exact same instruction stream and
// payloads as its Body twin (pinned by TestSteppersMatchBodies), so seeded
// runs, traces, and measurements are unchanged; what the port buys is
// O(local state) System.Fork, no coroutine switch per step, and true
// canonical state keys for the explorer's deduplication. The Body forms
// stay the reference semantics. The coroutine adapter runs the protocols
// that exist only as Bodies — SetBody variants such as the sticky tracks,
// BufferedHeterogeneous, and user protocols like examples/ledger — but
// cannot fork or key them, so they solve and replay but are not explored.

// opInfoKey hashes a poised instruction into a state key: the pending
// instruction is part of a process's canonical state (it encodes every
// decision the process has already committed to, such as which component it
// is about to promote).
func opInfoKey(i *sim.OpInfo) uint64 {
	h := machine.Mix64(uint64(i.Loc) ^ 0x706f6973)
	h = machine.Mix64(h ^ uint64(i.Op))
	for _, a := range i.Args {
		h = machine.Mix64(h ^ machine.HashValue(a))
	}
	return h
}

func mix2(a, b uint64) uint64 { return machine.Mix64(a ^ b) }

// opInfoSymKey is opInfoKey relative to a location relabeling: the poised
// instruction's location is mapped through relabel before hashing, so the
// key is invariant under the location permutations the symmetry-reduced
// state key quotients by (sim.SymKeyer).
func opInfoSymKey(i *sim.OpInfo, relabel func(int) int) uint64 {
	h := machine.Mix64(uint64(relabel(i.Loc)) ^ 0x706f6973)
	h = machine.Mix64(h ^ uint64(i.Op))
	for _, a := range i.Args {
		h = machine.Mix64(h ^ machine.HashValue(a))
	}
	return h
}

// All the steppers in this file but exactRaceStepper implement
// sim.SymKeyer: each is built from its input alone (never its pid — see
// steppersOf call sites), and each folds every location its future
// behavior can reference through the relabeling, in a fixed role order,
// which is exactly the SymKeyer contract. The set-bit machine is the one
// place a process id is genuine behavioral state (it picks the bit lane);
// its SymKey folds the id, which conservatively keeps those processes
// unmerged.
//
// Every stepper keeps its poised instruction as state, or points at a
// shared immutable one, so Poise returns a pointer without assembling or
// writing anything (sim.Stepper). Where the instruction's Args point into
// an array inside the stepper (casStepper.args, maxRegStepper.arg,
// qscCore.box), ForkInto points the copy's Args at the copy's own array.

// --- compare-and-swap (Table 1 row 10) ---------------------------------------

type casStepper struct {
	input    int
	args     [2]machine.Value
	op       sim.OpInfo // the CAS; Args points into args
	done     bool
	decision int
}

func newCASStepper(input int) *casStepper {
	c := &casStepper{
		input: input,
		args:  [2]machine.Value{machine.Word(0), machine.Word(int64(input + 1))},
	}
	c.op = sim.OpInfo{Loc: 0, Op: machine.OpCompareAndSwap, Args: c.args[:]}
	return c
}

func (c *casStepper) Poise() *sim.OpInfo {
	if c.done {
		return nil
	}
	return &c.op
}

func (c *casStepper) Resume(res machine.Value) bool {
	old, ok := machine.AsInt64(res)
	if !ok {
		panic(fmt.Sprintf("consensus: non-numeric CAS result %v", res))
	}
	if old == 0 {
		c.decision = c.input
	} else {
		c.decision = int(old) - 1
	}
	c.done = true
	return true
}

func (c *casStepper) Outcome() (bool, int, error) { return c.done, c.decision, nil }
func (c *casStepper) Halt()                       {}

func (c *casStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, ok := prev.(*casStepper)
	if !ok {
		p = new(casStepper)
	}
	*p = *c
	p.op.Args = p.args[:]
	return p
}

func (c *casStepper) StateKey() uint64 { return machine.Mix64(uint64(c.input) ^ 0x636173) }

func (c *casStepper) SymStateKey(relabel func(int) int) uint64 {
	return mix2(c.StateKey(), uint64(relabel(0)))
}

// --- introduction protocols --------------------------------------------------

type introFAA2TASStepper struct {
	input    int
	done     bool
	decision int
}

// The introduction protocols' instructions, shared and immutable: the
// memory never mutates instruction arguments and no caller writes through
// a poised instruction, so Poise hands out pointers to these.
var (
	faa2Op = sim.OpInfo{Loc: 0, Op: machine.OpFetchAndAdd, Args: []machine.Value{machine.Int(2)}}
	tasOp  = sim.OpInfo{Loc: 0, Op: machine.OpTestAndSet}
	readOp = sim.OpInfo{Loc: 0, Op: machine.OpRead}
	decOp  = sim.OpInfo{Loc: 0, Op: machine.OpDecrement}
)

func (c *introFAA2TASStepper) Poise() *sim.OpInfo {
	switch {
	case c.done:
		return nil
	case c.input == 0:
		return &faa2Op
	default:
		return &tasOp
	}
}

func (c *introFAA2TASStepper) Resume(res machine.Value) bool {
	old := machine.MustInt(res)
	if c.input == 0 {
		if old.Bit(0) == 1 {
			c.decision = 1
		}
	} else if old.Sign() == 0 || old.Bit(0) == 1 {
		c.decision = 1
	}
	c.done = true
	return true
}

func (c *introFAA2TASStepper) Outcome() (bool, int, error) { return c.done, c.decision, nil }
func (c *introFAA2TASStepper) Halt()                       {}

func (c *introFAA2TASStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, ok := prev.(*introFAA2TASStepper)
	if !ok {
		p = new(introFAA2TASStepper)
	}
	*p = *c
	return p
}

func (c *introFAA2TASStepper) StateKey() uint64 { return machine.Mix64(uint64(c.input) ^ 0x666161) }

func (c *introFAA2TASStepper) SymStateKey(relabel func(int) int) uint64 {
	return mix2(c.StateKey(), uint64(relabel(0)))
}

type introDecMulStepper struct {
	input    int
	reading  bool // the update is done; the read is poised
	done     bool
	decision int
	// mulOp is the multiply, built once per protocol instance and shared,
	// immutable, by every stepper and fork.
	mulOp *sim.OpInfo
}

func (c *introDecMulStepper) Poise() *sim.OpInfo {
	switch {
	case c.done:
		return nil
	case c.reading:
		return &readOp
	case c.input == 0:
		return &decOp
	default:
		return c.mulOp
	}
}

func (c *introDecMulStepper) Resume(res machine.Value) bool {
	if !c.reading {
		c.reading = true
		return false
	}
	if machine.MustInt(res).Sign() > 0 {
		c.decision = 1
	}
	c.done = true
	return true
}

func (c *introDecMulStepper) Outcome() (bool, int, error) { return c.done, c.decision, nil }
func (c *introDecMulStepper) Halt()                       {}

func (c *introDecMulStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, ok := prev.(*introDecMulStepper)
	if !ok {
		p = new(introDecMulStepper)
	}
	*p = *c
	return p
}

func (c *introDecMulStepper) StateKey() uint64 {
	if c.reading {
		// Past the update the input is dead state: merge histories.
		return machine.Mix64(0x646d72)
	}
	return machine.Mix64(uint64(c.input) ^ 0x646d75)
}

func (c *introDecMulStepper) SymStateKey(relabel func(int) int) uint64 {
	return mix2(c.StateKey(), uint64(relabel(0)))
}

// --- two max-registers (Theorem 4.2) -----------------------------------------

// maxRegStepper program counter values; see maxRegBody for the loop being
// mirrored. The double collect of scanMax is unrolled into the read states.
const (
	mrAnnounce = iota // write-max of (0, input) to m1 poised
	mrReadA           // first collect: read m1 poised
	mrReadB           // first collect: read m2 poised
	mrReadA2          // confirming collect: read m1 poised
	mrReadB2          // confirming collect: read m2 poised
	mrWrite           // promotion or catch-up write-max poised
)

// maxRegStepper keeps the values its collects read as the machine.Values
// the memory returned. Those are immutable (a read of a big value is a fresh
// copy nobody else holds, and nothing writes into a stored value), so a fork
// is a struct copy that shares them, and the catch-up write passes the read
// value on as its argument. Pairs are decoded only once a double collect
// completes, on the int64 path while the register values fit a word. The
// poised instruction is stepper state, its write-max argument in the
// stepper's own slot, so Poise neither assembles nor allocates; ForkInto
// points a fork's argument at the fork's own slot.
type maxRegStepper struct {
	y        int64
	input    int
	pc       int
	a, b, a2 machine.Value
	arg      [1]machine.Value // write-max argument, while pc is mrAnnounce or mrWrite
	op       sim.OpInfo       // the poised instruction
	done     bool
	decision int
}

func newMaxRegStepper(input int, y int64) *maxRegStepper {
	s := &maxRegStepper{y: y, input: input, pc: mrAnnounce}
	s.arg[0] = encodePairValue(MaxRegPair{R: 0, X: input}, y)
	s.write(0, s.arg[0])
	return s
}

func (s *maxRegStepper) Poise() *sim.OpInfo {
	if s.done {
		return nil
	}
	return &s.op
}

// read poises the read of register loc.
func (s *maxRegStepper) read(pc, loc int) {
	s.pc = pc
	s.op.Loc, s.op.Op, s.op.Args = loc, machine.OpReadMax, nil
}

// write poises the write-max of v to register loc.
func (s *maxRegStepper) write(loc int, v machine.Value) {
	s.arg[0] = v
	s.op.Loc, s.op.Op, s.op.Args = loc, machine.OpWriteMax, s.arg[:]
}

func (s *maxRegStepper) Resume(res machine.Value) bool {
	switch s.pc {
	case mrAnnounce, mrWrite:
		s.read(mrReadA, 0)
	case mrReadA:
		s.a = res
		s.read(mrReadB, 1)
	case mrReadB:
		s.b = res
		s.read(mrReadA2, 0)
	case mrReadA2:
		s.a2 = res
		s.read(mrReadB2, 1)
	case mrReadB2:
		if !machine.EqualValues(s.a2, s.a) || !machine.EqualValues(res, s.b) {
			// Collects disagree: keep collecting (scanMax's inner loop).
			s.a, s.b = s.a2, res
			s.read(mrReadA2, 0)
			return false
		}
		v1, v2 := s.a2, res
		p1, p2 := decodePairValue(v1, s.y), decodePairValue(v2, s.y)
		switch {
		case p1.R == p2.R+1 && p1.X == p2.X:
			s.done, s.decision = true, p1.X
			return true
		case machine.EqualValues(v1, v2):
			s.pc = mrWrite
			s.write(0, encodePairValue(MaxRegPair{R: p1.R + 1, X: p1.X}, s.y))
		default:
			s.pc = mrWrite
			s.write(1, v1)
		}
	}
	return false
}

func (s *maxRegStepper) Outcome() (bool, int, error) { return s.done, s.decision, nil }
func (s *maxRegStepper) Halt()                       {}

func (s *maxRegStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, ok := prev.(*maxRegStepper)
	if !ok {
		p = new(maxRegStepper)
	}
	*p = *s
	if p.op.Args != nil {
		p.op.Args = p.arg[:]
	}
	return p
}

func (s *maxRegStepper) StateKey() uint64 {
	// Past the announcement the input is dead state; the locals and the
	// pending instruction determine the future.
	h := machine.Mix64(uint64(s.pc) ^ 0x6d7872)
	h = mix2(h, machine.HashValue(s.a))
	h = mix2(h, machine.HashValue(s.b))
	h = mix2(h, machine.HashValue(s.a2))
	return mix2(h, opInfoKey(&s.op))
}

func (s *maxRegStepper) SymStateKey(relabel func(int) int) uint64 {
	h := machine.Mix64(uint64(s.pc) ^ 0x6d7872)
	h = mix2(h, machine.HashValue(s.a))
	h = mix2(h, machine.HashValue(s.b))
	h = mix2(h, machine.HashValue(s.a2))
	h = mix2(h, opInfoSymKey(&s.op, relabel))
	// Role order: m1 then m2 — every pc references both registers.
	h = mix2(h, uint64(relabel(0)))
	return mix2(h, uint64(relabel(1)))
}

// --- the racing-counters loops (Lemmas 3.1/3.2) ------------------------------

// raceStepper stages.
const (
	rsUpdate   = iota // an inc/dec is in flight; scan next
	rsScan            // a scan is in flight; check for a winner next
	rsInitScan        // bounded only: the first scan, feeding promote(input, s)
)

// raceStepper runs RaceUnbounded (bounded=false) or RaceBounded
// (bounded=true) over a forkable counter machine, issuing the identical
// instruction stream. Its machine is a counter.SymMachine (the
// constructors' parameter type), which SymStateKey relies on; loops over
// plain machines run as exactRaceSteppers.
type raceStepper struct {
	cm       counter.Machine
	n, input int
	bounded  bool
	stage    int
	pending  sim.OpInfo
	done     bool
	decision int
}

func newRaceStepper(cm counter.SymMachine, n, input int, bounded bool) *raceStepper {
	return newRaceStepperInto(nil, cm, n, input, bounded)
}

// newRaceStepperInto is newRaceStepper rebuilding into spare's storage when
// non-nil (a retired round stepper recycled by mvStepper), so round
// transitions in a long-lived stepper stop allocating. cm is typically built
// over spare.cm's storage first (NewIncMachineInto and friends); the rebuilt
// stepper is indistinguishable from a fresh one.
func newRaceStepperInto(spare *raceStepper, cm counter.SymMachine, n, input int, bounded bool) *raceStepper {
	s := spare
	if s == nil {
		s = new(raceStepper)
	}
	s.init(cm, n, input, bounded)
	return s
}

func (s *raceStepper) init(cm counter.Machine, n, input int, bounded bool) {
	*s = raceStepper{cm: cm, n: n, input: input, bounded: bounded}
	if bounded {
		s.stage = rsInitScan
		cm.StartScan(&s.pending)
	} else {
		s.stage = rsUpdate
		cm.StartInc(input, &s.pending)
	}
}

// promote mirrors RaceBounded's promote: decrement the largest other
// component if it has reached n, otherwise increment v.
func (s *raceStepper) promote(v int, sc []int64) {
	u := -1
	for w := range sc {
		if w == v {
			continue
		}
		if u < 0 || sc[w] > sc[u] {
			u = w
		}
	}
	if u >= 0 && sc[u] >= int64(s.n) {
		s.cm.StartDec(u, &s.pending)
		return
	}
	s.cm.StartInc(v, &s.pending)
}

func (s *raceStepper) Poise() *sim.OpInfo {
	if s.done {
		return nil
	}
	return &s.pending
}

// Resume has the counter machine write the next instruction straight into
// pending: nothing is returned by value and copied on the step path.
func (s *raceStepper) Resume(res machine.Value) bool {
	if s.cm.Step(res, &s.pending) {
		return false
	}
	switch s.stage {
	case rsUpdate:
		s.stage = rsScan
		s.cm.StartScan(&s.pending)
	case rsInitScan:
		s.stage = rsUpdate
		s.promote(s.input, s.cm.Counts())
	case rsScan:
		sc := s.cm.Counts()
		if v, ok := winner(sc, int64(s.n)); ok {
			s.done, s.decision = true, v
			return true
		}
		s.stage = rsUpdate
		if s.bounded {
			s.promote(leader(sc), sc)
		} else {
			s.cm.StartInc(leader(sc), &s.pending)
		}
	}
	return false
}

func (s *raceStepper) Outcome() (bool, int, error) { return s.done, s.decision, nil }
func (s *raceStepper) Halt()                       {}

func (s *raceStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, _ := prev.(*raceStepper)
	return s.forkOver(p)
}

// forkOver copies s into p's storage, or into fresh storage when p is nil.
func (s *raceStepper) forkOver(p *raceStepper) *raceStepper {
	if p == nil {
		p = new(raceStepper)
	}
	cm := p.cm
	*p = *s
	p.cm = s.cm.ForkInto(cm)
	return p
}

func (s *raceStepper) StateKey() uint64 {
	h := machine.Mix64(uint64(s.stage) ^ 0x726163)
	if s.stage == rsInitScan {
		// The only point after construction where the input is still read.
		h = mix2(h, uint64(s.input))
	}
	h = mix2(h, s.cm.Key())
	return mix2(h, opInfoKey(&s.pending))
}

func (s *raceStepper) SymStateKey(relabel func(int) int) uint64 {
	h := machine.Mix64(uint64(s.stage) ^ 0x726163)
	if s.stage == rsInitScan {
		h = mix2(h, uint64(s.input))
	}
	h = mix2(h, s.cm.(counter.SymMachine).SymKey(relabel))
	return mix2(h, opInfoSymKey(&s.pending, relabel))
}

// exactRaceStepper is the RaceUnbounded loop over a plain counter.Machine:
// the tracks machine, whose location span is unbounded, and the register
// arrays, where each process writes its own register (over buffers, with
// its id in the payload). Neither admits a sound symmetric key, so the
// wrapper exposes everything raceStepper does except SymStateKey, and
// symmetric explorations of these rows fall back to the exact key.
type exactRaceStepper struct{ r raceStepper }

func newExactRaceStepper(cm counter.Machine, n, input int) *exactRaceStepper {
	s := new(exactRaceStepper)
	s.r.init(cm, n, input, false)
	return s
}

func (s *exactRaceStepper) Poise() *sim.OpInfo            { return s.r.Poise() }
func (s *exactRaceStepper) Resume(res machine.Value) bool { return s.r.Resume(res) }
func (s *exactRaceStepper) Outcome() (bool, int, error)   { return s.r.Outcome() }
func (s *exactRaceStepper) Halt()                         {}
func (s *exactRaceStepper) StateKey() uint64              { return s.r.StateKey() }

func (s *exactRaceStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, ok := prev.(*exactRaceStepper)
	if !ok {
		p = new(exactRaceStepper)
	}
	s.r.forkOver(&p.r)
	return p
}

// --- the Lemma 5.2 multi-valued lift -----------------------------------------

// slotOps is the stepper-side ValueSlot codec: Record is one instruction,
// Recover a mini state machine driven through recoverStep. Like the counter
// machines, each writes its instruction into the caller's slot next.
type slotOps interface {
	size() int
	recordOp(base, val int, next *sim.OpInfo)
	// recoverStep consumes one read result; done=false wrote the next read
	// into next. On done, ok reports whether a value was recovered. The
	// first read is that of base, issued by the caller.
	recoverStep(res machine.Value, base int, j *int, next *sim.OpInfo) (done bool, val int, ok bool)
}

// multiSlotOps mirrors MultiSlot: one {read, write(x)} location.
type multiSlotOps struct{}

func (multiSlotOps) size() int { return 1 }

func (multiSlotOps) recordOp(base, val int, next *sim.OpInfo) {
	*next = sim.OpInfo{Loc: base, Op: machine.OpWrite, Args: []machine.Value{machine.Int(int64(val) + 1)}}
}

func (multiSlotOps) recoverStep(res machine.Value, _ int, _ *int, _ *sim.OpInfo) (bool, int, bool) {
	if res == nil {
		return true, 0, false
	}
	x := machine.MustInt(res)
	if x.Sign() == 0 {
		return true, 0, false
	}
	return true, int(x.Int64()) - 1, true
}

// bitSlotOps mirrors BitSlot: a run of `values` bit locations.
type bitSlotOps struct {
	values int
	setOne machine.Op
}

func (s bitSlotOps) size() int { return s.values }

func (s bitSlotOps) recordOp(base, val int, next *sim.OpInfo) {
	*next = sim.OpInfo{Loc: base + val, Op: s.setOne}
}

func (s bitSlotOps) recoverStep(res machine.Value, base int, j *int, next *sim.OpInfo) (bool, int, bool) {
	if machine.MustInt(res).Sign() != 0 {
		return true, *j, true
	}
	*j++
	if *j < s.values {
		*next = sim.OpInfo{Loc: base + *j, Op: machine.OpRead}
		return false, 0, false
	}
	return true, 0, false
}

// mvStepper phases.
const (
	mvpRecord  = iota // the candidate-record instruction is in flight
	mvpRound          // the round's binary consensus sub-stepper is running
	mvpRecover        // recovering the value behind the agreed bit
)

// mvStepper is MultiValued as an explicit state machine: k =
// ceil(log2 values) rounds of record / binary-consensus / recover, with the
// per-round binary consensus a nested raceStepper.
type mvStepper struct {
	k, c     int
	slot     slotOps
	newRound func(spare *raceStepper, binBase, bit int) *raceStepper

	v     int // current candidate value
	round int
	bit   int // this round's proposed bit
	base  int // this round's location base
	phase int
	sub   *raceStepper
	// spareSub parks a retired round stepper — the sub of a finished round,
	// or a recycled round stepper displaced by a pooled fork whose source was
	// between rounds — so the next round (or a later fork landing mid-round
	// in this storage) rebuilds over it instead of allocating. Always
	// exclusively owned: ForkInto never takes the source's, so two steppers
	// cannot share one.
	spareSub *raceStepper
	recJ     int
	pending  sim.OpInfo

	done     bool
	decision int
	err      error
}

// takeSpare hands out the parked round stepper (nil when none), clearing the
// slot so its storage is never handed out twice.
func (s *mvStepper) takeSpare() *raceStepper {
	sp := s.spareSub
	s.spareSub = nil
	return sp
}

func newMVStepper(values, c int, slot slotOps, input int, newRound func(spare *raceStepper, binBase, bit int) *raceStepper) *mvStepper {
	s := &mvStepper{k: bitsFor(values), c: c, slot: slot, newRound: newRound, v: input}
	s.startRound()
	return s
}

func (s *mvStepper) startRound() {
	s.base = s.round * (2*s.slot.size() + s.c)
	s.bit = (s.v >> (s.k - 1 - s.round)) & 1
	if s.round == s.k-1 {
		// Final round: no designated slots.
		s.phase = mvpRound
		s.sub = s.newRound(s.takeSpare(), s.base, s.bit)
		return
	}
	s.phase = mvpRecord
	s.slot.recordOp(s.base+s.bit*s.slot.size(), s.v, &s.pending)
}

// finishRound folds the agreed bit into the candidate and advances.
func (s *mvStepper) advanceRound() {
	s.round++
	if s.round == s.k {
		s.done, s.decision = true, s.v
		return
	}
	s.startRound()
}

func (s *mvStepper) Poise() *sim.OpInfo {
	if s.done || s.err != nil {
		return nil
	}
	if s.phase == mvpRound {
		return s.sub.Poise()
	}
	return &s.pending
}

func (s *mvStepper) Resume(res machine.Value) bool {
	switch s.phase {
	case mvpRecord:
		s.phase = mvpRound
		s.sub = s.newRound(s.takeSpare(), s.base+2*s.slot.size(), s.bit)
	case mvpRound:
		if !s.sub.Resume(res) {
			return false
		}
		agreed := s.sub.decision
		// Retire the finished round's stepper into the spare slot: the next
		// round rebuilds over it (stepper, machine, and collect buffers)
		// instead of allocating afresh.
		s.spareSub, s.sub = s.sub, nil
		if agreed == s.bit {
			s.advanceRound()
			return s.done
		}
		if s.round == s.k-1 {
			s.v = (s.v &^ 1) | agreed
			s.advanceRound()
			return s.done
		}
		s.phase = mvpRecover
		s.recJ = 0
		s.pending = sim.OpInfo{Loc: s.base + agreed*s.slot.size(), Op: machine.OpRead}
	case mvpRecover:
		agreedBase := s.pending.Loc - s.recJ // recover reads walk the slot run
		doneRec, val, ok := s.slot.recoverStep(res, agreedBase, &s.recJ, &s.pending)
		if !doneRec {
			return false
		}
		if !ok {
			// The agreed bit was proposed by some process, which recorded its
			// value first: it must be visible (the Lemma 5.2 invariant).
			s.err = fmt.Errorf("consensus: round %d agreed bit has no recorded value", s.round)
			return true
		}
		s.v = val
		s.advanceRound()
		return s.done
	}
	return false
}

func (s *mvStepper) Outcome() (bool, int, error) { return s.done, s.decision, s.err }
func (s *mvStepper) Halt()                       {}

func (s *mvStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, ok := prev.(*mvStepper)
	if !ok {
		p = new(mvStepper)
	}
	sub, spare := p.sub, p.spareSub
	if sub == nil {
		sub, spare = spare, nil
	}
	*p = *s
	if s.sub == nil {
		// Between rounds: park the displaced round stepper for a later fork
		// that lands mid-round in this storage.
		p.sub, p.spareSub = nil, sub
		return p
	}
	p.spareSub = spare
	p.sub = s.sub.forkOver(sub)
	return p
}

// doneKey keys a finished stepper by its outcome. A stepper that decides
// in its last round has retired its round stepper (sub is nil) while its
// phase stays mvpRound, so the live keys below cannot be taken.
func (s *mvStepper) doneKey() uint64 {
	h := machine.Mix64(uint64(s.decision) ^ 0x6d76646f)
	if s.err != nil {
		h = mix2(h, 1)
	}
	return h
}

func (s *mvStepper) StateKey() uint64 {
	if s.done || s.err != nil {
		return s.doneKey()
	}
	h := machine.Mix64(uint64(s.v) ^ 0x6d7635)
	h = mix2(h, uint64(s.round)|uint64(s.phase)<<16|uint64(s.recJ)<<32)
	if s.phase == mvpRound {
		return mix2(h, s.sub.StateKey())
	}
	return mix2(h, opInfoKey(&s.pending))
}

func (s *mvStepper) SymStateKey(relabel func(int) int) uint64 {
	if s.done || s.err != nil {
		return s.doneKey()
	}
	h := machine.Mix64(uint64(s.v) ^ 0x6d7635)
	h = mix2(h, uint64(s.round)|uint64(s.phase)<<16|uint64(s.recJ)<<32)
	if s.phase == mvpRound {
		h = mix2(h, s.sub.SymStateKey(relabel))
	} else {
		h = mix2(h, opInfoSymKey(&s.pending, relabel))
	}
	// Future references: the rest of the construction's layout, from the
	// current round's block to the final round's bin-consensus locations
	// (completed rounds are never touched again, so they stay out).
	total := (s.k-1)*(2*s.slot.size()+s.c) + s.c
	for loc := s.base; loc < total; loc++ {
		h = mix2(h, uint64(relabel(loc)))
	}
	return h
}

// --- constructors shared by the protocol wiring ------------------------------

// steppersOf builds one stepper per input with build(pid, input).
func steppersOf(inputs []int, build func(i, input int) sim.Stepper) []sim.Stepper {
	out := make([]sim.Stepper, len(inputs))
	for i, in := range inputs {
		out[i] = build(i, in)
	}
	return out
}
