package consensus

import (
	"repro/internal/counter"
	"repro/internal/machine"
	"repro/internal/sim"
)

// This file implements Theorem 9.3: n-consensus using an unbounded number
// of memory locations supporting only read() and either write(1) or
// test-and-set(). Each value races along an unbounded track of single-bit
// locations (the counter simulation of [GR05] the paper describes), and the
// racing-counters rule of Lemma 3.1 decides.
//
// The memory is unbounded; Footprint measures how many locations a run
// actually consumed, which grows with contention — the executable face of
// the Table 1 row whose space complexity is infinite (Theorem 9.2 proves no
// bounded number of locations suffices).

// WriteOneTracks solves n-consensus over unboundedly many {read, write(1)}
// locations.
func WriteOneTracks(n int) *Protocol {
	return &Protocol{
		Name:      "write(1)-tracks",
		Set:       machine.SetReadWrite1,
		N:         n,
		Values:    n,
		Unbounded: true,
		Body: func(p *sim.Proc) int {
			return RaceUnbounded(counter.NewTracks(p, 0, n), n, p.Input())
		},
		Steppers: func(inputs []int) []sim.Stepper { return tracksSteppers(n, false, inputs) },
	}
}

// TASTracks solves n-consensus over unboundedly many {read, test-and-set}
// locations: test-and-set simulates write(1) by discarding its result
// (Theorem 9.3).
func TASTracks(n int) *Protocol {
	return &Protocol{
		Name:      "test-and-set-tracks",
		Set:       machine.SetReadTAS,
		N:         n,
		Values:    n,
		Unbounded: true,
		Body: func(p *sim.Proc) int {
			return RaceUnbounded(counter.NewTracksTAS(p, 0, n), n, p.Input())
		},
		Steppers: func(inputs []int) []sim.Stepper { return tracksSteppers(n, true, inputs) },
	}
}

// tracksSteppers builds the forkable form of the racing loop over n tracks.
func tracksSteppers(n int, tas bool, inputs []int) []sim.Stepper {
	return steppersOf(inputs, func(_, in int) sim.Stepper {
		return newRaceStepper(nil, counter.NewTracksMachine(0, n, tas), n, in, false)
	})
}

// WriteOneTracksSticky and TASTracksSticky are the same protocols with the
// sticky tie-break of RaceUnboundedSticky; the Lemma 9.1 flood adversary
// drives them to arbitrary space consumption without a decision.

// WriteOneTracksSticky is WriteOneTracks with sticky tie-breaking.
func WriteOneTracksSticky(n int) *Protocol {
	pr := WriteOneTracks(n)
	pr.Name = "write(1)-tracks-sticky"
	pr.SetBody(func(p *sim.Proc) int {
		return RaceUnboundedSticky(counter.NewTracks(p, 0, n), n, p.Input())
	})
	return pr
}

// TASTracksSticky is TASTracks with sticky tie-breaking.
func TASTracksSticky(n int) *Protocol {
	pr := TASTracks(n)
	pr.Name = "test-and-set-tracks-sticky"
	pr.SetBody(func(p *sim.Proc) int {
		return RaceUnboundedSticky(counter.NewTracksTAS(p, 0, n), n, p.Input())
	})
	return pr
}
