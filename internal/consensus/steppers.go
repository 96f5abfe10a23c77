package consensus

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file holds the protocols as explicit forkable state machines
// (sim.Stepper + sim.Forker + sim.StateKeyer): the CAS, introduction,
// max-register, racing-counter and Lemma 5.2 multi-valued protocols. The
// racing loops run over every counter machine, the unbounded tracks (T1.1,
// and the sticky tracks of the Lemma 9.1 flood) and the register arrays of
// T1.3, T1.6 and T1.MA included; Algorithm 1's stepper (T1.5) is in swap.go
// and MP.QSC's in qsc.go. Every Table 1 protocol exists only in this form:
// a process is O(local state) to fork, costs no coroutine switch per step,
// and has a canonical state key for the explorer's deduplication. The same
// algorithms written as coroutine code (sim.Body) live in the package's
// test files as oracles: TestSteppersMatchBodies pins every stepper's
// instruction stream, payloads, decisions and final memory to them under
// seeded schedules.

// opInfoKey hashes a poised instruction into a state key: the pending
// instruction is part of a process's canonical state (it encodes every
// decision the process has already committed to, such as which component it
// is about to promote). Under a relabeling the instruction's location is
// mapped through relabel before hashing, so the key is invariant under the
// location permutations the symmetric key quotients by.
func opInfoKey(i *sim.OpInfo, relabel func(int) int) uint64 {
	loc := i.Loc
	if relabel != nil {
		loc = relabel(loc)
	}
	h := machine.Mix64(uint64(loc) ^ 0x706f6973)
	h = machine.Mix64(h ^ uint64(i.Op))
	for _, a := range i.Args {
		h = machine.Mix64(h ^ machine.HashValue(a))
	}
	return h
}

// Every stepper's StateKey(relabel) computes the exact key when relabel is
// nil and the symmetric key otherwise (sim.StateKeyer): the same folds, plus
// every location the stepper's future behavior can reference, through the
// relabeling, in a fixed role order. All the steppers in this file have a
// symmetric key except a racing loop over a machine without one (the
// tracks and the register arrays): each is built from its input alone
// (never its pid — see steppersOf call sites). The set-bit machine is the
// one place a process id is genuine behavioral state (it picks the bit
// lane); its symmetric key folds the id, which conservatively keeps those
// processes unmerged.
//
// Every stepper keeps its poised instruction as state, or points at a
// shared immutable one, so Poise returns a pointer without assembling or
// writing anything (sim.Stepper). Where the instruction's Args point into
// an array inside the stepper (casStepper.args, maxRegStepper.arg,
// qscCore.box), ForkInto points the copy's Args at the copy's own array.
//
// Every stepper owns its mutable state, so ForkInto is a struct copy into
// the storage sim.ForkTarget picks plus a copy of each owned buffer into
// the target's: a racing loop forks its counter machine, whose words sit in
// one buffer, over the target's machine, and the Lemma 5.2 lift holds its
// round's racing loop by value and rebuilds it in place at each new round,
// machine included.

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
	p := sim.ForkTarget[casStepper](prev)
	*p = *c
	p.op.Args = p.args[:]
	return p
}

func (c *casStepper) StateKey(relabel func(int) int) (uint64, bool) {
	return sim.FoldSpan(machine.Mix64(uint64(c.input)^0x636173), relabel, 0, 1), true
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
	p := sim.ForkTarget[introFAA2TASStepper](prev)
	*p = *c
	return p
}

func (c *introFAA2TASStepper) StateKey(relabel func(int) int) (uint64, bool) {
	return sim.FoldSpan(machine.Mix64(uint64(c.input)^0x666161), relabel, 0, 1), true
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
	p := sim.ForkTarget[introDecMulStepper](prev)
	*p = *c
	return p
}

func (c *introDecMulStepper) StateKey(relabel func(int) int) (uint64, bool) {
	// Past the update the input is dead state: merge histories.
	h := machine.Mix64(0x646d72)
	if !c.reading {
		h = machine.Mix64(uint64(c.input) ^ 0x646d75)
	}
	return sim.FoldSpan(h, relabel, 0, 1), true
}

// --- two max-registers (Theorem 4.2) -----------------------------------------

// maxRegStepper program counter values. The process announces (0, input) in
// m1, then loops: double-collect the two registers (max-register values
// never decrease, so two identical consecutive collects form a snapshot);
// decide x when m1 = (r+1, x) and m2 = (r, x); promote x to round r+1 in m1
// when both hold (r, x); otherwise catch m2 up to m1's value. The double
// collect is unrolled into the read states.
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
			// Collects disagree: keep collecting.
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
	p := sim.ForkTarget[maxRegStepper](prev)
	*p = *s
	if p.op.Args != nil {
		p.op.Args = p.arg[:]
	}
	return p
}

func (s *maxRegStepper) StateKey(relabel func(int) int) (uint64, bool) {
	// Past the announcement the input is dead state; the locals and the
	// pending instruction determine the future.
	h := machine.Mix64(uint64(s.pc) ^ 0x6d7872)
	h = sim.MixKey(h, machine.HashValue(s.a))
	h = sim.MixKey(h, machine.HashValue(s.b))
	h = sim.MixKey(h, machine.HashValue(s.a2))
	h = sim.MixKey(h, opInfoKey(&s.op, relabel))
	// Role order: m1 then m2 — every pc references both registers.
	return sim.FoldSpan(h, relabel, 0, 2), true
}

// --- the racing-counters loops (Lemmas 3.1/3.2) ------------------------------

// raceStepper stages.
const (
	rsUpdate   = iota // an inc/dec is in flight; scan next
	rsScan            // a scan is in flight; check for a winner next
	rsInitScan        // bounded only: the first scan, feeding promote(input, s)
)

// raceRule picks the racing loop a raceStepper runs.
type raceRule uint8

const (
	// raceUnbounded is Lemma 3.1: m-valued consensus among n processes over
	// an m-component unbounded counter. The process first promotes its
	// input, then alternates scans with promotions of the current leader
	// (ties to the smallest component), deciding once the leader is n ahead
	// of every other component.
	raceUnbounded raceRule = iota
	// raceSticky is raceUnbounded with a different — equally legitimate
	// under Lemma 3.1's "breaking ties arbitrarily" — tie-break: among
	// maximal components the process prefers the one it last promoted. The
	// choice does not affect safety or obstruction-freedom, but it admits
	// simple schedules in which distinct processes promote distinct
	// components forever, which the Lemma 9.1 flood demonstration exploits
	// to keep the write(1)-track protocols growing without a decision.
	raceSticky
	// raceBounded is Lemma 3.2: the same race over a bounded counter whose
	// components must stay within {0,...,3n-1}. To promote v when some
	// other component already holds a count of at least n, the process
	// decrements that component instead of incrementing v; the lemma shows
	// counts then never leave the legal range.
	raceBounded
)

// raceStepper runs a racing loop over a forkable counter machine. It has a
// symmetric key exactly when its machine does.
type raceStepper struct {
	cm       counter.Machine
	n, input int
	rule     raceRule
	stage    int
	last     int // the component last promoted, under raceSticky
	pending  sim.OpInfo
	done     bool
	decision int
}

// start (re)builds s as the racing loop over cm, poised on its first
// instruction, and returns s.
func (s *raceStepper) start(cm counter.Machine, n, input int, rule raceRule) *raceStepper {
	*s = raceStepper{cm: cm, n: n, input: input, rule: rule, last: input}
	if rule == raceBounded {
		s.stage = rsInitScan
		cm.StartScan(&s.pending)
	} else {
		s.stage = rsUpdate
		cm.StartInc(input, &s.pending)
	}
	return s
}

// promote is Lemma 3.2's promotion of v: decrement the largest other
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
		v := leader(sc)
		switch s.rule {
		case raceBounded:
			s.promote(v, sc)
			return false
		case raceSticky:
			if sc[s.last] == sc[v] {
				v = s.last
			}
			s.last = v
		}
		s.cm.StartInc(v, &s.pending)
	}
	return false
}

func (s *raceStepper) Outcome() (bool, int, error) { return s.done, s.decision, nil }
func (s *raceStepper) Halt()                       {}

func (s *raceStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p := sim.ForkTarget[raceStepper](prev)
	s.copyTo(p)
	return p
}

// copyTo makes *p a copy of s, its machine forked over p's.
func (s *raceStepper) copyTo(p *raceStepper) {
	cm := p.cm
	*p = *s
	p.cm = s.cm.ForkInto(cm)
}

func (s *raceStepper) StateKey(relabel func(int) int) (uint64, bool) {
	k, ok := s.cm.Key(relabel)
	if !ok {
		return 0, false
	}
	h := machine.Mix64(uint64(s.stage) ^ 0x726163)
	if s.stage == rsInitScan {
		// The only point after construction where the input is still read.
		h = sim.MixKey(h, uint64(s.input))
	}
	if s.rule == raceSticky {
		h = sim.MixKey(h, uint64(s.last))
	}
	h = sim.MixKey(h, k)
	return sim.MixKey(h, opInfoKey(&s.pending, relabel)), true
}

// --- the Lemma 5.2 multi-valued lift -----------------------------------------

// slotOps is the codec for one designated value location (or location
// run): a process records its candidate value in it with one instruction
// and later recovers one, a mini state machine driven through recoverStep.
// Like the counter machines, each writes its instruction into the caller's
// slot next.
type slotOps interface {
	size() int
	recordOp(base, val int, next *sim.OpInfo)
	// recoverStep consumes one read result; done=false wrote the next read
	// into next. On done, ok reports whether a value was recovered. The
	// first read is that of base, issued by the caller.
	recoverStep(res machine.Value, base int, j *int, next *sim.OpInfo) (done bool, val int, ok bool)
}

// nonzero reports whether a numeric result is non-zero, without the big.Int
// MustInt builds of a word; a non-numeric result panics, as with MustInt.
func nonzero(res machine.Value) bool {
	if x, ok := machine.AsInt64(res); ok {
		return x != 0
	}
	return machine.MustInt(res).Sign() != 0
}

// multiSlotOps is the plain codec: one {read, write(x)} location, written
// with the value offset by one so a recorded 0 is distinguishable from the
// initial contents.
type multiSlotOps struct{}

func (multiSlotOps) size() int { return 1 }

func (multiSlotOps) recordOp(base, val int, next *sim.OpInfo) {
	*next = sim.OpInfo{Loc: base, Op: machine.OpWrite, Args: []machine.Value{machine.Int(int64(val) + 1)}}
}

func (multiSlotOps) recoverStep(res machine.Value, _ int, _ *int, _ *sim.OpInfo) (bool, int, bool) {
	if res == nil || !nonzero(res) {
		return true, 0, false
	}
	x, ok := machine.AsInt64(res)
	if !ok {
		x = machine.MustInt(res).Int64()
	}
	return true, int(x) - 1, true
}

// bitSlotOps is Theorem 9.4's codec: a run of `values` single-bit
// locations; recording value x sets bit x (setOne is write(1) or
// test-and-set), recovering scans for any set bit.
type bitSlotOps struct {
	values int
	setOne machine.Op
}

func (s bitSlotOps) size() int { return s.values }

func (s bitSlotOps) recordOp(base, val int, next *sim.OpInfo) {
	*next = sim.OpInfo{Loc: base + val, Op: s.setOne}
}

func (s bitSlotOps) recoverStep(res machine.Value, base int, j *int, next *sim.OpInfo) (bool, int, bool) {
	if nonzero(res) {
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

// roundBuilder (re)builds sub as a round's binary consensus over the bin
// locations from binBase, proposing bit, reusing sub's machine storage.
type roundBuilder func(sub *raceStepper, binBase, bit int) *raceStepper

// mvStepper is the Lemma 5.2 lift: k = ceil(log2 values) rounds of record /
// binary-consensus / recover, with the per-round binary consensus a nested
// raceStepper. Values are agreed most-significant-bit first; after the final
// round the candidate value equals the agreed bit string, which is some
// process's input by the round invariant.
type mvStepper struct {
	k, c     int
	slot     slotOps
	newRound roundBuilder

	v     int // current candidate value
	round int
	bit   int // this round's proposed bit
	base  int // this round's location base
	phase int
	// sub is the round's binary consensus while phase is mvpRound and the
	// stepper is not done. Otherwise it is storage kept for the next round
	// to rebuild in place, machine included, and may hold a stale round: a
	// fork neither reads nor copies it then.
	sub     raceStepper
	recJ    int
	pending sim.OpInfo

	done     bool
	decision int
	err      error
}

func newMVStepper(values, c int, slot slotOps, input int, newRound roundBuilder) *mvStepper {
	s := &mvStepper{k: bitsFor(values), c: c, slot: slot, newRound: newRound, v: input}
	s.startRound()
	return s
}

func (s *mvStepper) startRound() {
	s.base = roundBase(s.round, s.c, s.slot.size())
	s.bit = (s.v >> (s.k - 1 - s.round)) & 1
	if s.round == s.k-1 {
		// Final round: no designated slots.
		s.phase = mvpRound
		s.newRound(&s.sub, s.base, s.bit)
		return
	}
	s.phase = mvpRecord
	s.slot.recordOp(s.base+s.bit*s.slot.size(), s.v, &s.pending)
}

// advanceRound moves past a round whose agreed bit the candidate holds.
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
		s.newRound(&s.sub, s.base+2*s.slot.size(), s.bit)
	case mvpRound:
		if !s.sub.Resume(res) {
			return false
		}
		agreed := s.sub.decision
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
	p := sim.ForkTarget[mvStepper](prev)
	sub := p.sub
	*p = *s
	p.sub = sub
	if s.phase == mvpRound && !s.done {
		s.sub.copyTo(&p.sub)
	}
	return p
}

func (s *mvStepper) StateKey(relabel func(int) int) (uint64, bool) {
	if s.done || s.err != nil {
		// A finished stepper is keyed by its outcome alone: one that decides
		// in its last round keeps phase mvpRound over a finished sub.
		h := machine.Mix64(uint64(s.decision) ^ 0x6d76646f)
		if s.err != nil {
			h = sim.MixKey(h, 1)
		}
		return h, true
	}
	h := machine.Mix64(uint64(s.v) ^ 0x6d7635)
	h = sim.MixKey(h, uint64(s.round)|uint64(s.phase)<<16|uint64(s.recJ)<<32)
	if s.phase == mvpRound {
		k, ok := s.sub.StateKey(relabel)
		if !ok {
			return 0, false
		}
		h = sim.MixKey(h, k)
	} else {
		h = sim.MixKey(h, opInfoKey(&s.pending, relabel))
	}
	// Future references: the rest of the construction's layout, from the
	// current round's block to the final round's bin-consensus locations
	// (completed rounds are never touched again, so they stay out).
	total := roundBase(s.k-1, s.c, s.slot.size()) + s.c
	return sim.FoldSpan(h, relabel, s.base, total-s.base), true
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
