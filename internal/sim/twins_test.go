package sim

import "repro/internal/machine"

// opsStepper is a forkable, keyed test stepper that performs a fixed
// instruction list and then decides the last result it received, modulo
// mod when mod > 0 (a non-numeric result counts as 0). It is the stepper
// twin of the package's straight-line test bodies, for the tests that fork
// or key a system: the Body adapter does neither.
type opsStepper struct {
	ops  []OpInfo // shared between forks, never written
	mod  int
	pc   int
	last int
}

func (s *opsStepper) Poise() *OpInfo {
	if s.pc >= len(s.ops) {
		return nil
	}
	return &s.ops[s.pc]
}

func (s *opsStepper) Resume(res machine.Value) bool {
	x, _ := machine.AsInt64(res)
	s.last = int(x)
	s.pc++
	return s.pc >= len(s.ops)
}

func (s *opsStepper) Outcome() (bool, int, error) {
	if s.pc < len(s.ops) {
		return false, 0, nil
	}
	if s.mod > 0 {
		return true, s.last % s.mod, nil
	}
	return true, s.last, nil
}

func (s *opsStepper) Halt()                    {}
func (s *opsStepper) ForkInto(Stepper) Stepper { f := *s; return &f }

// StateKey hashes the program position and the last result: together with
// the (fixed) instruction list they determine the stepper's future. There
// is no symmetric key.
func (s *opsStepper) StateKey(relabel func(int) int) (uint64, bool) {
	if relabel != nil {
		return 0, false
	}
	return machine.Mix64(uint64(s.pc)<<32 ^ uint64(int64(s.last))), true
}

// raceSteppers is raceBody as n opsSteppers: four rounds of increment-own,
// read-other, then a read of location 0 whose parity is the decision.
func raceSteppers(n int) []Stepper {
	out := make([]Stepper, n)
	for id := range out {
		var ops []OpInfo
		for i := 0; i < 4; i++ {
			ops = append(ops,
				OpInfo{Loc: id % 2, Op: machine.OpIncrement},
				OpInfo{Loc: (id + 1) % 2, Op: machine.OpRead})
		}
		ops = append(ops, OpInfo{Loc: 0, Op: machine.OpRead})
		out[id] = &opsStepper{ops: ops, mod: 2}
	}
	return out
}

// raceSystem is a system of n raceSteppers on forkTestMem.
func raceSystem(n int, opts ...SystemOption) *System {
	return NewSystemSteppers(forkTestMem(), make([]int, n), raceSteppers(n), opts...)
}

// pingPongSteppers is pingPong as opsSteppers: each process sends its input
// to its peer's channel, then receives from its own and decides that.
func pingPongSteppers(inputs []int) []Stepper {
	out := make([]Stepper, len(inputs))
	for id, in := range inputs {
		peer := (id + 1) % len(inputs)
		out[id] = &opsStepper{ops: []OpInfo{Send(peer, machine.Int(int64(in))), Recv(id)}}
	}
	return out
}
