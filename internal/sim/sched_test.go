package sim

import (
	"testing"

	"repro/internal/machine"
)

// copyDraw is the draw Random.Next made before it indexed the live list in
// place, kept as the oracle: copy the live set (AppendLive) into a buffer,
// then index the copy with one draw from the same generator.
type copyDraw struct {
	r   Random
	buf []int
}

func (c *copyDraw) Next(s *System) int {
	c.buf = s.AppendLive(c.buf[:0])
	if len(c.buf) == 0 {
		return -1
	}
	return c.buf[c.r.intn(len(c.buf))]
}

// failingSystem is n race steppers plus two steppers that fail on an
// unsupported swap, one at its first instruction and one after two reads.
func failingSystem(n int) *System {
	steppers := raceSteppers(n)
	swap := OpInfo{Loc: 0, Op: machine.OpSwap, Args: []machine.Value{machine.Int(1)}}
	read := OpInfo{Loc: 1, Op: machine.OpRead}
	steppers = append(steppers,
		&opsStepper{ops: []OpInfo{swap}},
		&opsStepper{ops: []OpInfo{read, read, swap}})
	return NewSystemSteppers(forkTestMem(), make([]int, len(steppers)), steppers)
}

// TestRandomMatchesCopyDraw runs each system twice from the same seed, once
// under Random and once under the copy-then-index oracle, and checks that
// the two schedulers pick the same pid at every step: on shared-memory
// systems whose processes finish, crash (RandomCrash) and fail on an
// illegal instruction, and on channel systems under ordered, reorder and
// lossy(1) delivery.
func TestRandomMatchesCopyDraw(t *testing.T) {
	ring := func(mode Delivery) func() *System {
		return func() *System {
			return NewSystemSteppers(chanMem(3, 1, machine.ChanFIFO), make([]int, 3), chainSteppers(3), WithDelivery(mode))
		}
	}
	for _, tc := range []struct {
		name     string
		build    func() *System
		failures bool // some process fails on an illegal instruction
		channels bool // delivery pids are scheduled
	}{
		{"race", func() *System { return raceSystem(6) }, false, false},
		{"failing", func() *System { return failingSystem(4) }, true, false},
		{"ordered", ring(Delivery{Mode: DeliverOrdered}), false, true},
		{"reorder", ring(Delivery{Mode: DeliverReorder}), false, true},
		{"lossy", ring(Delivery{Mode: DeliverLossy, MaxDrops: 1}), false, true},
		{"lossy-pingpong", func() *System {
			return NewSystemSteppers(chanMem(4, 2, machine.ChanFIFO), make([]int, 4),
				pingPongSteppers([]int{1, 2, 3, 4}), WithDelivery(Delivery{Mode: DeliverLossy, MaxDrops: 1}))
		}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen scheduleCoverage
			for seed := int64(1); seed <= 200; seed++ {
				for _, crash := range []float64{0, 0.1} {
					var got, want Scheduler = NewRandom(seed), &copyDraw{r: Random{state: uint64(seed)}}
					if crash > 0 {
						got = NewRandomCrash(got, crash, seed)
						want = NewRandomCrash(want, crash, seed)
					}
					c := checkSameSchedule(t, tc.build(), tc.build(), got, want, seed)
					seen.failed += c.failed
					seen.crashed += c.crashed
					seen.delivered += c.delivered
				}
			}
			if seen.crashed == 0 || (seen.failed > 0) != tc.failures || (seen.delivered > 0) != tc.channels {
				t.Fatalf("coverage: %+v", seen)
			}
		})
	}
}

// scheduleCoverage counts what a lockstep run exercised.
type scheduleCoverage struct {
	failed, crashed, delivered int
}

// checkSameSchedule steps a and b in lockstep under got and want and fails t
// at the first step where the schedulers disagree.
func checkSameSchedule(t *testing.T, a, b *System, got, want Scheduler, seed int64) scheduleCoverage {
	t.Helper()
	defer a.Close()
	defer b.Close()
	var c scheduleCoverage
	for step := 0; step < 10_000; step++ {
		pg, pw := got.Next(a), want.Next(b)
		if pg != pw {
			t.Fatalf("seed %d step %d: Random picked %d, the copy-then-index draw %d", seed, step, pg, pw)
		}
		if pg < 0 {
			c.crashed = len(a.Result().Crashed)
			return c
		}
		if pg >= a.N() {
			c.delivered++
		}
		_, errA := a.Step(pg)
		_, errB := b.Step(pw)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d step %d: step errors differ: %v vs %v", seed, step, errA, errB)
		}
		if errA != nil {
			c.failed++
		}
	}
	t.Fatalf("seed %d: no end within 10000 steps", seed)
	return c
}
