package consensus

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Byzantine QSC variants: one process (always the last pid) runs a fixed
// adversarial send script instead of the protocol, then parks receiving and
// discarding forever. The scripts are input-independent, so the coroutine
// Body and the explicit stepper stay twins, and the honest processes run the
// unmodified protocol — what the scenario portfolio probes is exactly the
// honest code's resilience to each class of misbehavior.

// QSCAdversary names a scripted Byzantine behavior for the last process of a
// QSC instance.
type QSCAdversary int

const (
	// QSCByzMalformed floods garbage: non-message payloads, nonsense phases,
	// and a decide announcement for an out-of-domain value. The planted
	// violation is validity: an honest process that trusts the announcement
	// decides a value nobody proposed.
	QSCByzMalformed QSCAdversary = iota
	// QSCByzOutOfTurn sends protocol-shaped messages at the wrong times —
	// future rounds, phase 2 before phase 1, duplicates — all carrying value
	// 0 consistently. Honest processes must remain safe (the scenario
	// portfolio explores it expecting no violation).
	QSCByzOutOfTurn
	// QSCByzFork equivocates: the adversary tells each honest process j that
	// value j is unanimously supported, in both phases. With inputs 0..n-2
	// for the honest processes and the minimum quorum threshold, two honest
	// processes can be driven to decide different values — the planted
	// agreement violation, reachable under every delivery mode.
	QSCByzFork
)

// String returns the adversary's scenario spelling.
func (a QSCAdversary) String() string {
	switch a {
	case QSCByzMalformed:
		return "malformed"
	case QSCByzOutOfTurn:
		return "out-of-turn"
	case QSCByzFork:
		return "fork"
	}
	return "invalid"
}

// byzScript builds the adversary's send script for an n-process instance
// with the adversary at pid n-1. The script's instructions are immutable
// and shared by every fork of the stepper, which poises on them in place.
func byzScript(n, rounds int, adv QSCAdversary) []sim.OpInfo {
	byz := n - 1
	var s []sim.OpInfo
	for dest := 0; dest < byz; dest++ {
		switch adv {
		case QSCByzMalformed:
			s = append(s,
				sim.Send(dest, machine.Word(42)), // not a message at all
				sim.Send(dest, wire(qscMsg{From: byz, Round: 0, Phase: 7, Val: 0, Tkt: byz})),
				sim.Send(dest, wire(qscMsg{From: byz, Phase: qscDecidePhase, Val: n + 39})),
			)
		case QSCByzOutOfTurn:
			future := rounds - 1
			s = append(s,
				sim.Send(dest, wire(qscMsg{From: byz, Round: future, Phase: 2, Val: 0, Tkt: future*n + byz, Ready: true})),
				sim.Send(dest, wire(qscMsg{From: byz, Round: 0, Phase: 2, Val: 0, Tkt: byz})),
				sim.Send(dest, wire(qscMsg{From: byz, Round: 0, Phase: 1, Val: 0, Tkt: byz})),
				sim.Send(dest, wire(qscMsg{From: byz, Round: 0, Phase: 1, Val: 0, Tkt: byz})), // duplicate
			)
		case QSCByzFork:
			s = append(s,
				sim.Send(dest, wire(qscMsg{From: byz, Round: 0, Phase: 1, Val: dest, Tkt: byz})),
				sim.Send(dest, wire(qscMsg{From: byz, Round: 0, Phase: 2, Val: dest, Tkt: byz, Ready: true})),
			)
		}
	}
	return s
}

// byzScriptHash folds the script into the stepper's state-key salt.
func byzScriptHash(sends []sim.OpInfo) uint64 {
	h := machine.Mix64(uint64(len(sends)) ^ 0x62797a73)
	for _, s := range sends {
		h = machine.Mix64(h ^ uint64(int64(s.Loc)))
		h = machine.Mix64(h ^ machine.HashValue(s.Args[0]))
	}
	return h
}

// byzStepper plays a fixed send script, then parks on its own channel,
// discarding everything it receives. It never decides.
type byzStepper struct {
	n, id  int
	sends  []sim.OpInfo // immutable, shared across forks
	recv   sim.OpInfo   // the parked receive from the own channel
	pos    int
	script uint64
}

func newByzStepper(n, id int, sends []sim.OpInfo) *byzStepper {
	return &byzStepper{n: n, id: id, sends: sends, recv: sim.Recv(id), script: byzScriptHash(sends)}
}

func (b *byzStepper) Poise() *sim.OpInfo {
	if b.pos < len(b.sends) {
		return &b.sends[b.pos]
	}
	return &b.recv
}

func (b *byzStepper) Resume(machine.Value) bool {
	if b.pos < len(b.sends) {
		b.pos++
	}
	return false
}

func (b *byzStepper) Outcome() (bool, int, error) { return false, 0, nil }
func (b *byzStepper) Halt()                       {}

func (b *byzStepper) ForkInto(prev sim.Stepper) sim.Stepper {
	p, ok := prev.(*byzStepper)
	if !ok {
		p = new(byzStepper)
	}
	*p = *b
	return p
}

// StateKey folds the pid, the script and its position; the symmetric key
// adds every channel the script can reference, relabeled — the conservative
// never-merge treatment, like qscStepper's.
func (b *byzStepper) StateKey(relabel func(int) int) (uint64, bool) {
	h := machine.Mix64(machine.Mix64(uint64(int64(b.id))^b.script) ^ uint64(int64(b.pos)))
	return foldLocs(h, relabel, 0, b.n), true
}

// QSCWithByzantine derives a QSC instance whose last process runs the given
// scripted adversary instead of the protocol; the n-1 honest processes run
// the unmodified code with threshold t. Inputs for the adversary's slot are
// accepted and ignored. See QSCConfig for the parameter constraints.
func QSCWithByzantine(n, t, rounds int, adv QSCAdversary) *Protocol {
	if n < 2 {
		panic(fmt.Sprintf("consensus: Byzantine QSC needs n >= 2, got %d", n))
	}
	pr := QSCConfig(n, t, rounds)
	byz := n - 1
	sends := byzScript(n, rounds, adv)
	// The script may exceed the honest per-sender message budget; widen every
	// channel to cover it so sends still never block.
	perDest := 0
	for _, s := range sends {
		if s.Loc == 0 {
			perDest++
		}
	}
	if extra := perDest - (2*rounds + 1); extra > 0 {
		for i := range pr.Channels {
			pr.Channels[i].Cap += extra
		}
	}
	pr.Name = fmt.Sprintf("qsc-byzantine-%s(n=%d,t=%d,r=%d)", adv, n, t, rounds)
	honest := qscBody(n, t, rounds)
	pr.Body = func(p *sim.Proc) int {
		if p.ID() != byz {
			return honest(p)
		}
		for _, s := range sends {
			p.Send(s.Loc, s.Args[0])
		}
		for {
			p.Recv(byz) // park: discard everything, never decide
		}
	}
	pr.Steppers = func(inputs []int) []sim.Stepper {
		return steppersOf(inputs, func(i, in int) sim.Stepper {
			if i == byz {
				return newByzStepper(n, byz, sends)
			}
			return newQSCStepper(n, t, rounds, i, in)
		})
	}
	return pr
}
