package consensus

import (
	"fmt"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/sim"
)

// This file ports a TLC/QSC-style threshold consensus protocol into the
// message-passing half of the machine model: every process owns one bounded
// FIFO channel (its inbox, location = its pid), progress is driven by the
// delivery adversary (sim.Delivery), and agreement rests on quorum
// intersection instead of shared-memory primitives. The protocol is a
// round-based two-phase adopt-commit:
//
//   - Phase 1 of round r: broadcast (est, ticket). On gathering t phase-1
//     messages, propose the unique value if they were unanimous (ready), the
//     maximum-ticket value otherwise.
//   - Phase 2: broadcast the proposal with its ready bit. On gathering t
//     phase-2 messages: decide if all were ready (necessarily for one value —
//     two unanimous phase-1 quorums of size t with 2t > n intersect in a
//     sender that sent both the same message); adopt the ready value if any
//     was ready; adopt the maximum-ticket proposal otherwise.
//
// With 2t > n the protocol is safe against any delivery adversary, and with
// t <= n - f it stays live with f processes silent — the executable
// f-resilience axis the hierarchy's MP row sweeps. Termination cannot be
// deterministic (FLP), so rounds are capped: a process that exhausts the cap
// parks, gathering only decide announcements. Deciders broadcast their
// decision before halting, which unsticks parked and lagging processes under
// any schedule that eventually delivers.
//
// Like the Table 1 ports, the protocol exists twice — a coroutine Body and
// an explicit forkable stepper issuing the identical instruction stream
// (pinned by TestQSCStepperMatchesBody) — so it runs on every engine and
// explores with O(state) forks and canonical dedup keys.

// qscDecidePhase tags a decide announcement; phases 1 and 2 are the round
// phases.
const qscDecidePhase = 3

// qscMsg is the protocol's wire message. It is a comparable struct so
// channel payloads stay allocation-light, and it implements
// machine.Hashable so channel fingerprints hash it canonically.
type qscMsg struct {
	From  int // sender pid (trusted only as much as the sender)
	Round int
	Phase int // 1, 2, or qscDecidePhase
	Val   int
	Tkt   int  // deterministic ticket round*n + sender
	Ready bool // phase 2: sender's phase-1 quorum was unanimous
}

// Hash64 gives the message's canonical hash (machine.Hashable).
func (m qscMsg) Hash64() uint64 {
	h := machine.Mix64(uint64(int64(m.From)) ^ 0x71736d73)
	h = machine.Mix64(h ^ uint64(int64(m.Round)))
	h = machine.Mix64(h ^ uint64(int64(m.Phase)))
	h = machine.Mix64(h ^ uint64(int64(m.Val)))
	h = machine.Mix64(h ^ uint64(int64(m.Tkt)))
	if m.Ready {
		h = machine.Mix64(h ^ 1)
	}
	return h
}

// String renders the message for traces and memory fingerprints.
func (m qscMsg) String() string {
	tag := ""
	if m.Ready {
		tag = "!"
	}
	if m.Phase == qscDecidePhase {
		return fmt.Sprintf("D%d(v%d)", m.From, m.Val)
	}
	return fmt.Sprintf("m%d(r%dp%d v%d t%d%s)", m.From, m.Round, m.Phase, m.Val, m.Tkt, tag)
}

// qscWire is a message as it travels through a channel: boxed once per
// broadcast, immutable afterwards, and carrying the message's canonical hash,
// so the channel's cached location hash folds a stored term instead of
// rehashing every queued message. It renders and hashes exactly as the
// message it wraps.
type qscWire struct {
	msg qscMsg
	h   uint64
}

func wire(m qscMsg) *qscWire { return &qscWire{msg: m, h: m.Hash64()} }

// Hash64 returns the wrapped message's hash (machine.Hashable).
func (w *qscWire) Hash64() uint64 { return w.h }

// String renders the wrapped message.
func (w *qscWire) String() string { return w.msg.String() }

// qscAgg accumulates the messages gathered for one (round, phase) bucket.
// Every field is a commutative aggregate — counts, maxima, unanimity flags —
// so the bucket's value (and with it the process's state key) depends only
// on the set of messages folded, never on their arrival order. seen is a
// per-sender bitmask: one message per sender counts per bucket, which bounds
// the aggregates and blunts Byzantine duplicate floods.
type qscAgg struct {
	seen       uint64
	cnt        int
	val        int  // the unique value when !mixed and cnt > 0
	mixed      bool // two different values folded
	maxTkt     int  // maximum ticket folded; -1 when none
	maxVal     int  // value carried by the maximum ticket
	readyCnt   int
	readyVal   int  // max-ticket value among ready messages
	readyTkt   int  // its ticket; -1 when none
	readyMixed bool // two different ready values folded (Byzantine only)
}

func (a *qscAgg) fold(m qscMsg) {
	if m.From < 0 || m.From >= 64 || a.seen&(1<<uint(m.From)) != 0 {
		return
	}
	a.seen |= 1 << uint(m.From)
	if a.cnt == 0 {
		a.val, a.maxTkt, a.readyTkt = m.Val, -1, -1
	} else if m.Val != a.val {
		a.mixed = true
	}
	a.cnt++
	if m.Tkt > a.maxTkt {
		a.maxTkt, a.maxVal = m.Tkt, m.Val
	}
	if m.Ready {
		if a.readyCnt > 0 && m.Val != a.readyVal {
			a.readyMixed = true
		}
		if m.Tkt > a.readyTkt {
			a.readyTkt, a.readyVal = m.Tkt, m.Val
		}
		a.readyCnt++
	}
}

func (a *qscAgg) key() uint64 {
	h := machine.Mix64(a.seen ^ 0x71616767)
	h = machine.Mix64(h ^ uint64(int64(a.cnt))<<32 ^ uint64(int64(a.val)))
	h = machine.Mix64(h ^ uint64(int64(a.maxTkt))<<32 ^ uint64(int64(a.maxVal)))
	h = machine.Mix64(h ^ uint64(int64(a.readyCnt))<<32 ^ uint64(int64(a.readyVal)))
	if a.mixed {
		h = machine.Mix64(h ^ 2)
	}
	if a.readyMixed {
		h = machine.Mix64(h ^ 4)
	}
	return h
}

// qscAggs is a process's bucket array, shared copy-on-write by a stepper and
// its forks. A fork marks the array shared with an atomic store (forks of one
// system may run on several goroutines, and a fork only reads its source
// otherwise); a holder about to write a shared array copies it first and
// owns the copy alone. The mark is never cleared, so an array is written in
// place only while exactly one stepper has ever held it.
type qscAggs struct {
	shared atomic.Bool
	b      []qscAgg
	// inline backs b for up to the default round cap, so an array is one
	// allocation.
	inline [2 * qscDefaultRounds]qscAgg
}

// newQSCAggs returns an unshared array of n empty buckets.
func newQSCAggs(n int) *qscAggs {
	a := new(qscAggs)
	if n <= len(a.inline) {
		a.b = a.inline[:n]
	} else {
		a.b = make([]qscAgg, n)
	}
	return a
}

// share marks the array as held by more than one stepper.
func (a *qscAggs) share() {
	if !a.shared.Load() {
		a.shared.Store(true)
	}
}

// qscCore is the protocol logic shared verbatim by the coroutine Body and
// the explicit stepper: both drive it through the same three entry points
// (resumeSend, fold+advance), so their instruction streams agree by
// construction.
type qscCore struct {
	n, t, rounds int
	id, input    int

	round int // current round; == rounds when parked
	phase int // 1 or 2; the bucket currently gathered after the broadcast
	est   int
	out   qscMsg // message being broadcast while dest < n
	// box is the send argument: out wrapped once per broadcast, not once
	// per send. It is set where out changes, so Poise only reads it, and
	// the stepper's poised send points into it.
	box  [1]machine.Value
	dest int // next broadcast destination; n = broadcast done, gathering

	ready    bool // phase-1 unanimity verdict, carried into the phase-2 message
	deciding bool // out is the decide announcement
	done     bool
	decision int

	aggs *qscAggs // rounds*2 buckets, indexed round*2 + phase-1
	// spare is a retired bucket array this core owns alone, the target of
	// the next copy-on-write; a fork never inherits it.
	spare *qscAggs
}

func newQSCCore(n, t, rounds, id, input int) *qscCore {
	c := &qscCore{
		n: n, t: t, rounds: rounds, id: id, input: input,
		est:  input,
		aggs: newQSCAggs(2 * rounds),
	}
	c.enterPhase(0, 1, input)
	if c.dest >= c.n {
		c.advance() // n = 1: the broadcast is empty, act on the folded self-message
	}
	return c
}

func (c *qscCore) tkt(round int) int { return round*c.n + c.id }

// bucket returns bucket i for writing, first copying the array when it is
// shared with a fork.
func (c *qscCore) bucket(i int) *qscAgg {
	if c.aggs.shared.Load() {
		fresh := c.spare
		c.spare = nil
		if fresh == nil || len(fresh.b) != len(c.aggs.b) {
			fresh = newQSCAggs(len(c.aggs.b))
		}
		copy(fresh.b, c.aggs.b)
		c.aggs = fresh
	}
	return &c.aggs.b[i]
}

// setOut makes m the message being broadcast.
func (c *qscCore) setOut(m qscMsg) {
	c.out = m
	c.box[0] = wire(m)
}

// enterPhase starts broadcasting for (round, phase): the process's own
// message folds locally (it never travels through its own channel), and the
// broadcast visits every other channel in ascending order.
func (c *qscCore) enterPhase(round, phase, val int) {
	c.round, c.phase = round, phase
	m := qscMsg{From: c.id, Round: round, Phase: phase, Val: val, Tkt: c.tkt(round)}
	if phase == 2 {
		m.Ready = c.ready
	}
	c.setOut(m)
	c.bucket(round*2 + phase - 1).fold(m)
	c.dest = 0
	c.skipSelf()
}

func (c *qscCore) skipSelf() {
	if c.dest == c.id {
		c.dest++
	}
}

// resumeSend records one completed send and reports follow-up work: when the
// broadcast just finished, a decide broadcast completes the process, and a
// round broadcast checks buckets that may have filled while the process was
// still in an earlier phase.
func (c *qscCore) resumeSend() {
	c.dest++
	c.skipSelf()
	if c.dest < c.n {
		return
	}
	if c.deciding {
		c.done = true
		return
	}
	c.advance()
}

// fold dispatches a received message: decide announcements finish the
// process immediately, stale messages (buckets already acted on) drop, and
// everything else accumulates into its bucket.
func (c *qscCore) fold(m qscMsg) {
	if c.done {
		return
	}
	if m.Phase == qscDecidePhase {
		c.decision, c.done = m.Val, true
		return
	}
	if m.Phase != 1 && m.Phase != 2 {
		return
	}
	if m.Round < 0 || m.Round >= c.rounds {
		return
	}
	if m.Round < c.round || (m.Round == c.round && m.Phase < c.phase) {
		return // stale: that bucket was already acted on
	}
	c.bucket(m.Round*2 + m.Phase - 1).fold(m)
}

// advance acts on the current bucket once it holds a quorum. Buckets that
// were acted on are zeroed so configurations that differ only in dead
// history share a state key. The loop exists for phases whose broadcast is
// empty (n = 1, where every destination is the sender itself): such a phase
// completes instantly and its successor bucket must be checked in the same
// call, since no send resume will ever arrive.
func (c *qscCore) advance() {
	for !c.done && !c.deciding && c.round < c.rounds {
		i := c.round*2 + c.phase - 1
		a := c.aggs.b[i]
		if a.cnt < c.t {
			return
		}
		*c.bucket(i) = qscAgg{}
		switch {
		case c.phase == 1:
			c.ready = !a.mixed
			cand := a.val
			if a.mixed {
				cand = a.maxVal
			}
			c.enterPhase(c.round, 2, cand)
		case a.readyCnt == a.cnt && !a.readyMixed:
			// Phase 2, unanimously ready: decide, then announce. Two ready
			// values cannot coexist honestly (unanimous phase-1 quorums
			// intersect), so readyVal is the value.
			c.decision, c.deciding = a.readyVal, true
			c.setOut(qscMsg{From: c.id, Round: c.round, Phase: qscDecidePhase, Val: c.decision})
			c.dest = 0
			c.skipSelf()
			if c.dest >= c.n {
				c.done = true // nobody to announce to
			}
			return
		default:
			// Phase 2, no decision: adopt the ready value when one exists
			// (readyVal is the deterministic max-ticket pick, which also
			// covers Byzantine readyMixed buckets), the max-ticket proposal
			// otherwise.
			if a.readyCnt > 0 {
				c.est = a.readyVal
			} else {
				c.est = a.maxVal
			}
			next := c.round + 1
			if next >= c.rounds {
				// Round cap: park. The process keeps gathering (Poise stays
				// on recv) but only decide announcements can still move it.
				c.round, c.phase = c.rounds, 1
				return
			}
			c.enterPhase(next, 1, c.est)
		}
		if c.dest < c.n {
			return // a broadcast is pending; its completion re-advances
		}
	}
}

// key hashes the full core state (the stepper's StateKey component).
func (c *qscCore) key() uint64 {
	h := machine.Mix64(uint64(int64(c.id)) ^ 0x717363)
	h = machine.Mix64(h ^ uint64(int64(c.input)))
	h = machine.Mix64(h ^ uint64(int64(c.round))<<40 ^ uint64(int64(c.phase))<<32 ^ uint64(int64(c.dest)))
	h = machine.Mix64(h ^ uint64(int64(c.est)))
	h = machine.Mix64(h ^ c.out.Hash64())
	flags := uint64(0)
	if c.deciding {
		flags |= 1
	}
	if c.done {
		flags |= 2
	}
	if c.ready {
		flags |= 4
	}
	h = machine.Mix64(h ^ flags ^ uint64(int64(c.decision))<<8)
	for i := range c.aggs.b {
		a := &c.aggs.b[i]
		if a.cnt == 0 {
			continue // zero buckets keep keys sparse and canonical
		}
		h = machine.Mix64(h ^ uint64(i)<<48 ^ a.key())
	}
	return h
}

// qscStepper is the explicit forkable state machine over qscCore. A fork
// is a struct copy sharing the bucket array copy-on-write (see qscAggs).
type qscStepper struct {
	core qscCore
	// op is the poised instruction: the send of core.box to core.dest while
	// a broadcast is pending (Args points into core.box), the receive from
	// the process's own channel otherwise.
	op sim.OpInfo
}

func newQSCStepper(n, t, rounds, id, input int) *qscStepper {
	s := &qscStepper{core: *newQSCCore(n, t, rounds, id, input)}
	s.poise()
	return s
}

// poise rebuilds op from the core, writing only the fields a resume can
// change (op's Multi is always nil).
func (s *qscStepper) poise() {
	c := &s.core
	if c.dest < c.n {
		s.op.Loc, s.op.Op, s.op.Args = c.dest, machine.OpChanSend, c.box[:]
		return
	}
	s.op.Loc, s.op.Op, s.op.Args = c.id, machine.OpChanRecv, nil
}

func (s *qscStepper) Poise() *sim.OpInfo {
	if s.core.done {
		return nil
	}
	return &s.op
}

func (s *qscStepper) Resume(res machine.Value) bool {
	c := &s.core
	if c.dest < c.n {
		c.resumeSend()
	} else if w, ok := res.(*qscWire); ok {
		c.fold(w.msg)
		c.advance()
	}
	s.poise()
	return c.done
}

func (s *qscStepper) Outcome() (bool, int, error) { return s.core.done, s.core.decision, nil }
func (s *qscStepper) Halt()                       {}

func (s *qscStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, ok := prev.(*qscStepper)
	if !ok {
		p = new(qscStepper)
	}
	spare := p.core.spare
	if old := p.core.aggs; old != nil && !old.shared.Load() {
		spare = old // never shared, so p owned it alone: recycle it
	}
	s.core.aggs.share()
	p.core = s.core
	p.core.spare = spare
	p.poise() // op's Args must point into p's own box, not s's
	return p
}

// StateKey is the core's key. The symmetric key adds every channel location
// the protocol can reference, relabeled, in pid order; the core's key
// already folds the pid (a QSC process's id is genuine behavioral state: it
// owns its inbox channel and its tickets). Processes therefore never merge
// under the process-symmetry quotient — the conservative choice the set-bit
// stepper also makes — while memory-location symmetry still applies.
func (s *qscStepper) StateKey(relabel func(int) int) (uint64, bool) {
	return foldLocs(s.core.key(), relabel, 0, s.core.n), true
}

// qscBody is the coroutine twin of qscStepper, step-for-step: the same core
// drives it, so the instruction streams are identical under one schedule.
func qscBody(n, t, rounds int) sim.Body {
	return func(p *sim.Proc) int {
		c := newQSCCore(n, t, rounds, p.ID(), p.Input())
		for !c.done {
			if c.dest < c.n {
				p.Send(c.dest, c.box[0])
				c.resumeSend()
				continue
			}
			if w, ok := p.Recv(c.id).(*qscWire); ok {
				c.fold(w.msg)
				c.advance()
			}
		}
		return c.decision
	}
}

// qscDefaultRounds caps the adopt-commit rounds of the default QSC instance:
// enough that fair random schedules essentially always decide, small enough
// that state keys and channel capacities stay tight.
const qscDefaultRounds = 4

// QSC builds the threshold adopt-commit message-passing protocol for n
// processes with the canonical quorum threshold t = floor(n/2)+1 (the
// smallest satisfying the 2t > n safety requirement, tolerating
// f = n - t silent processes).
func QSC(n int) *Protocol { return QSCConfig(n, n/2+1, qscDefaultRounds) }

// QSCConfig builds a QSC instance with an explicit quorum threshold and
// round cap. Safety requires 2t > n (quorum intersection); liveness under f
// silent processes requires t <= n - f. It panics on thresholds outside
// [1, n] or violating 2t > n, and on rounds < 1 — misconfigurations, not
// run-time conditions.
func QSCConfig(n, t, rounds int) *Protocol {
	if n < 1 || n > 63 {
		panic(fmt.Sprintf("consensus: QSC needs 1 <= n <= 63, got %d", n))
	}
	if t < 1 || t > n || 2*t <= n {
		panic(fmt.Sprintf("consensus: QSC threshold t=%d outside (n/2, n] for n=%d", t, n))
	}
	if rounds < 1 {
		panic(fmt.Sprintf("consensus: QSC needs rounds >= 1, got %d", rounds))
	}
	// Each sender delivers at most one message per (round, phase) plus one
	// decide announcement to each channel, and never sends to itself.
	cap := (n - 1) * (2*rounds + 1)
	if cap < 1 {
		cap = 1 // n=1: channels unused, but specs demand capacity
	}
	specs := make([]machine.ChannelSpec, n)
	for i := range specs {
		specs[i] = machine.ChannelSpec{Loc: i, Kind: machine.ChanFIFO, Cap: cap}
	}
	return &Protocol{
		Name:      fmt.Sprintf("qsc-threshold(n=%d,t=%d,r=%d)", n, t, rounds),
		Set:       machine.SetChannels,
		N:         n,
		Values:    n,
		Locations: n,
		Channels:  specs,
		Body:      qscBody(n, t, rounds),
		Steppers: func(inputs []int) []sim.Stepper {
			return steppersOf(inputs, func(i, in int) sim.Stepper {
				return newQSCStepper(n, t, rounds, i, in)
			})
		},
	}
}
