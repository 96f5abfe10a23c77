package explore

// Race-focused hammering of the walk's shared structures.
// These tests are meaningful under -race (the CI workflow runs the package
// with it explicitly) but also verify the claim-accounting invariants that
// the deterministic-report argument rests on.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestSeenTableClaimRace hammers one shared slot table, in every counting
// mode and at its default budget (so shards grow under the hammer), from
// many goroutines with overlapping (state, depth) pairs — crossing the
// 64-depth epoch fold — and verifies the claim invariant behind the walk's
// worker-count invariance: every pair is claimed by exactly one caller, and
// every state is reported new exactly once, no matter how the insertions
// interleave, so the distinct-state count is exact.
func TestSeenTableClaimRace(t *testing.T) {
	const (
		goroutines = 16
		keys       = 509 // past 3/4 of the starting shards: some grow
		depths     = 70
		rounds     = 20
	)
	for _, mode := range []Table{TableExact, TableCompact, TableCompact128} {
		table := newCTable(Options{Table: mode}, true)
		claims := make([]atomic.Int64, keys*depths)
		news := make([]atomic.Int64, keys)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for k := 0; k < keys; k++ {
						// Perturb the visiting order per goroutine so shards
						// are hit in different sequences.
						key := (k*(g+1) + r) % keys
						depth := (g*rounds + r) % depths
						claimed, newState, err := table.claim(fpOf(uint64(key)), depth)
						if err != nil {
							t.Error(err)
							return
						}
						if claimed {
							claims[key*depths+depth].Add(1)
						}
						if newState {
							news[key].Add(1)
						}
					}
				}
			}(g)
		}
		wg.Wait()
		for i := range claims {
			if got := claims[i].Load(); got != 1 {
				t.Fatalf("%v: pair %d claimed %d times, want exactly 1", mode, i, got)
			}
		}
		for k := range news {
			if got := news[k].Load(); got != 1 {
				t.Fatalf("%v: state %d reported new %d times, want exactly 1", mode, k, got)
			}
		}
		sum := summary(table)
		if sum.DistinctStates != keys {
			t.Fatalf("%v: distinct keys %d, want %d", mode, sum.DistinctStates, keys)
		}
		if start := newCTable(Options{Table: mode}, true); sum.Mem.TableBytes <= summary(start).Mem.TableBytes {
			t.Fatalf("%v: no shard grew under the hammer (%d bytes)", mode, sum.Mem.TableBytes)
		}
	}
}

// TestSeenTableCountRace is the dedup-off mode of the same hammer, at the
// claimer: every claim succeeds, even a repeated (state, depth) pair, and
// the distinct count stays exact.
func TestSeenTableCountRace(t *testing.T) {
	const goroutines, keys = 12, 256
	c := newClaimer(Options{}, true)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := uint64((k * (g + 1)) % keys)
				claimed, err := c.claimFingerprint(machine.Hash128{Lo: key, Hi: ^key}, k%5)
				if err != nil || !claimed {
					t.Errorf("dedup-off claim refused: claimed=%v err=%v", claimed, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := summary(c.table).DistinctStates; got != keys {
		t.Fatalf("distinct keys %d, want %d", got, keys)
	}
}

// TestDequeRingBounded hammers one deque with a pushing/popping owner and
// stealing thieves, then asserts the ring property the old slice deque
// lacked: the backing array is bounded by the occupancy high-water mark
// (within one doubling), not by the total number of pushes — steal() used
// to re-slice the backing array forward, creeping through it until each
// reallocation.
func TestDequeRingBounded(t *testing.T) {
	const (
		thieves = 8
		pushes  = 20000
	)
	var (
		d      = deque{shared: true}
		stolen atomic.Int64
		popped atomic.Int64
		done   atomic.Bool
	)
	var wg sync.WaitGroup
	for g := 0; g < thieves; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if nd := d.steal(); nd != nil {
					stolen.Add(1)
				}
			}
		}()
	}
	nd := &treeNode{}
	for i := 0; i < pushes; i++ {
		d.push(nd)
		// Pop in bursts so occupancy oscillates but stays small.
		if i%3 != 0 {
			if d.pop() != nil {
				popped.Add(1)
			}
		}
	}
	done.Store(true)
	wg.Wait()
	for d.pop() != nil {
		popped.Add(1)
	}
	if got := stolen.Load() + popped.Load(); got != pushes {
		t.Fatalf("drained %d nodes, want %d", got, pushes)
	}
	peak, capacity := d.peakSize(), d.capacity()
	if peak == 0 || peak > pushes {
		t.Fatalf("implausible peak occupancy %d", peak)
	}
	if capacity > 2*peak+8 {
		t.Fatalf("ring capacity %d not bounded by peak occupancy %d (backing-array creep)", capacity, peak)
	}
}

// TestParallelExplorerUnderLoad runs the walk with far
// more workers than subtrees of the instance at a shallow depth, so the
// steal path and the idle/termination protocol are exercised hard rather
// than every worker staying busy on its own deque.
func TestParallelExplorerUnderLoad(t *testing.T) {
	f := factoryFor(func() *consensus.Protocol { return consensus.MaxRegisters(2) }, []int{0, 1})
	for _, dedup := range []bool{false, true} {
		battery(t, f, Options{MaxDepth: 9, Dedup: dedup}, []int{16, 32})
	}
}

// TestParallelErrorTeardown: a factory whose systems fail mid-exploration
// must abort the pool without leaking or double-closing systems (the -race
// run would flag a post-Close use) and surface the error.
func TestParallelErrorTeardown(t *testing.T) {
	f := func() (*sim.System, error) {
		pr := consensus.MaxRegisters(2)
		// Bounded memory: a step on an out-of-range location errors, which
		// surfaces as an exploration failure mid-expansion.
		return sim.NewSystemSteppers(pr.NewMemory(), []int{0, 1},
			[]sim.Stepper{&failingStepper{fuse: 2}, &failingStepper{fuse: 3}}), nil
	}
	_, err := Exhaustive(context.Background(), f, Options{MaxDepth: 6, Workers: 8})
	if err == nil {
		t.Fatal("expected the planted process failure to surface")
	}
}

// failingStepper performs max-register reads until its fuse burns, then
// poises an out-of-range access whose Step fails. It forks natively so the
// walk exercises its error path rather than ErrNotForkable.
type failingStepper struct {
	fuse int
}

// failingStepper's two instructions, shared and never written.
var (
	readMax0   = sim.OpInfo{Loc: 0, Op: machine.OpReadMax}
	readMaxOut = sim.OpInfo{Loc: 1 << 30, Op: machine.OpReadMax} // out of range: Step errors
)

func (s *failingStepper) Poise() *sim.OpInfo {
	if s.fuse <= 0 {
		return &readMaxOut
	}
	return &readMax0
}
func (s *failingStepper) Resume(res machine.Value) bool    { s.fuse--; return false }
func (s *failingStepper) Outcome() (bool, int, error)      { return false, 0, nil }
func (s *failingStepper) Halt()                            {}
func (s *failingStepper) ForkInto(sim.Stepper) sim.Stepper { f := *s; return &f }
func (s *failingStepper) StateKey(relabel func(int) int) (uint64, bool) {
	if relabel != nil {
		return 0, false
	}
	return uint64(s.fuse + 1), true
}
