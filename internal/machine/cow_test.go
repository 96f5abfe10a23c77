package machine_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/machine"
)

// Copy-on-write queue storage: Clone and CloneInto copy location structs
// only, so a fork shares every buffer, pending queue and inbox array with
// its source. These tests hold that sharing against a deep-copy oracle.

const (
	cowFIFO    = 0 // FIFO channel location
	cowBag     = 1 // bag channel location
	cowBuf     = 2 // l-buffer location
	cowChanCap = 5
	cowBufLen  = 3
)

func newCOWMemory() *machine.Memory {
	set := machine.NewInstrSet("cow", machine.OpRead, machine.OpWrite).
		WithBuffers(cowBufLen).WithChannelOps()
	return machine.New(set, 3, machine.WithChannels([]machine.ChannelSpec{
		{Loc: cowFIFO, Kind: machine.ChanFIFO, Cap: cowChanCap},
		{Loc: cowBag, Kind: machine.ChanBag, Cap: cowChanCap},
	}))
}

// cowPair is a memory under test and its oracle: a DeepClone of the
// source's oracle taken when the memory was forked, which never shares a
// queue with anything and receives the same instructions.
type cowPair struct{ mem, oracle *machine.Memory }

// cowCoverage counts the mutation shapes the battery must exercise.
type cowCoverage struct {
	first, middle, last int // deliver/drop by rank position
	drained             int // recvs that empty an inbox
	windowed            int // buffer writes past the buffer's capacity
}

// TestCopyOnWriteBattery interleaves forks, recycled CloneInto targets and
// every queue mutation over families of memories sharing storage, and after
// every step checks each memory's queues, values and fingerprints against
// its oracle, and every cached per-location hash term against a recompute.
// An instruction that wrote into a shared array would show up as a sibling
// whose contents moved without an instruction of its own.
func TestCopyOnWriteBattery(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			cov := runCOWBattery(t, seed, 800)
			if cov.first == 0 || cov.middle == 0 || cov.last == 0 || cov.drained == 0 || cov.windowed == 0 {
				t.Fatalf("battery missed a mutation shape: %+v", cov)
			}
		})
	}
}

func runCOWBattery(t *testing.T, seed int64, steps int) cowCoverage {
	rng := rand.New(rand.NewSource(seed))
	root := newCOWMemory()
	pairs := []cowPair{{root, machine.DeepClone(root)}}
	var spare []*machine.Memory // retired memories, recycled as CloneInto targets
	var cov cowCoverage
	next := 0 // the next message payload; payloads are unique
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(12); {
		case r == 0 && len(pairs) < 10:
			// Fork three siblings off one source; the source keeps running.
			src := pairs[rng.Intn(len(pairs))]
			for k := 0; k < 3; k++ {
				var n *machine.Memory
				if len(spare) > 0 {
					n, spare = spare[len(spare)-1], spare[:len(spare)-1]
					src.mem.CloneInto(n)
				} else {
					n = src.mem.Clone()
				}
				pairs = append(pairs, cowPair{n, machine.DeepClone(src.oracle)})
			}
		case r == 1 && len(pairs) > 3:
			k := rng.Intn(len(pairs))
			spare = append(spare, pairs[k].mem)
			pairs = slices.Delete(pairs, k, k+1)
		default:
			if err := cowStep(rng, pairs[rng.Intn(len(pairs))], &next, &cov); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		for k, p := range pairs {
			if err := checkCOWPair(p); err != nil {
				t.Fatalf("step %d, memory %d: %v", step, k, err)
			}
		}
	}
	return cov
}

// cowStep applies one enabled instruction to a memory and its oracle and
// compares the results.
func cowStep(rng *rand.Rand, p cowPair, next *int, cov *cowCoverage) error {
	loc, op, args := cowInstr(rng, p.oracle, next, cov)
	got, gerr := p.mem.Apply(loc, op, args...)
	want, werr := p.oracle.Apply(loc, op, args...)
	if gerr != nil || werr != nil {
		return fmt.Errorf("%v@%d%v: memory error %v, oracle error %v", op, loc, args, gerr, werr)
	}
	if !machine.EqualValues(got, want) {
		return fmt.Errorf("%v@%d%v returned %v, oracle %v", op, loc, args, got, want)
	}
	return nil
}

// TestCopyOnWriteConcurrentForks clones one memory, whose every queue is
// non-empty, from several goroutines at once and drives each clone on its
// own goroutine: the clones share the base's arrays, so an instruction
// writing into one would race (under -race) and move a sibling or the base.
func TestCopyOnWriteConcurrentForks(t *testing.T) {
	base := fullCOWMemory(t)
	oracle := machine.DeepClone(base)
	const forks = 8
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			p := cowPair{base.Clone(), machine.DeepClone(oracle)}
			rng := rand.New(rand.NewSource(seed))
			var cov cowCoverage
			next := 1000 * int(seed)
			for step := 0; step < 300; step++ {
				if err := cowStep(rng, p, &next, &cov); err != nil {
					t.Errorf("fork %d, step %d: %v", seed, step, err)
					return
				}
				if err := checkCOWPair(p); err != nil {
					t.Errorf("fork %d, step %d: %v", seed, step, err)
					return
				}
			}
		}(int64(i + 2))
	}
	wg.Wait()
	if err := checkCOWPair(cowPair{base, oracle}); err != nil {
		t.Fatalf("base after concurrent forks: %v", err)
	}
}

// cowInstr picks an enabled instruction for the memory whose state m holds
// and records which mutation shape it exercises.
func cowInstr(rng *rand.Rand, m *machine.Memory, next *int, cov *cowCoverage) (int, machine.Op, []machine.Value) {
	ch := cowFIFO + rng.Intn(2)
	pending, inbox := m.PendingLen(ch), m.InboxLen(ch)
	switch r := rng.Intn(10); {
	case r < 3 && !m.ChanFull(ch):
		*next++
		return ch, machine.OpChanSend, []machine.Value{machine.Word(int64(*next))}
	case r < 6 && pending > 0:
		rank := rng.Intn(pending)
		switch {
		case rank == 0:
			cov.first++
		case rank == pending-1:
			cov.last++
		default:
			cov.middle++
		}
		op := machine.OpChanDeliver
		if r == 5 {
			op = machine.OpChanDrop
		}
		return ch, op, []machine.Value{machine.Word(int64(rank))}
	case r < 8 && inbox > 0:
		if inbox == 1 {
			cov.drained++
		}
		return ch, machine.OpChanRecv, nil
	}
	if m.BufferWrites(cowBuf) >= cowBufLen {
		cov.windowed++
	}
	*next++
	return cowBuf, machine.OpBufferWrite, []machine.Value{machine.Word(int64(*next))}
}

// checkCOWPair compares a memory with its oracle location by location and
// checks every cached hash term against a recompute.
func checkCOWPair(p cowPair) error {
	eq := func(a, b []machine.Value) bool { return slices.EqualFunc(a, b, machine.EqualValues) }
	for loc := 0; loc < p.oracle.Size(); loc++ {
		if got, want := p.mem.PeekPending(loc), p.oracle.PeekPending(loc); !eq(got, want) {
			return fmt.Errorf("location %d pending %v, oracle %v", loc, got, want)
		}
		if got, want := p.mem.PeekInbox(loc), p.oracle.PeekInbox(loc); !eq(got, want) {
			return fmt.Errorf("location %d inbox %v, oracle %v", loc, got, want)
		}
		if got, want := p.mem.PeekBuffer(loc), p.oracle.PeekBuffer(loc); !eq(got, want) {
			return fmt.Errorf("location %d buffer %v, oracle %v", loc, got, want)
		}
		if got, want := p.mem.Peek(loc), p.oracle.Peek(loc); !machine.EqualValues(got, want) {
			return fmt.Errorf("location %d value %v, oracle %v", loc, got, want)
		}
	}
	if got, want := p.mem.Fingerprint128(), p.oracle.Fingerprint128(); got != want {
		return fmt.Errorf("Fingerprint128 %v, oracle %v", got, want)
	}
	if stale := machine.StaleHashTerms(p.mem); len(stale) > 0 {
		return fmt.Errorf("cached hash terms of locations %v differ from a recompute", stale)
	}
	return nil
}

// fullCOWMemory returns a memory whose channels are full, with three
// messages pending and two delivered on each, and whose buffer is full.
func fullCOWMemory(t *testing.T) *machine.Memory {
	t.Helper()
	m := newCOWMemory()
	apply := func(loc int, op machine.Op, arg int) {
		if _, err := m.Apply(loc, op, machine.Word(int64(arg))); err != nil {
			t.Fatal(err)
		}
	}
	for _, ch := range []int{cowFIFO, cowBag} {
		for i := 0; i < cowChanCap; i++ {
			apply(ch, machine.OpChanSend, i)
		}
		apply(ch, machine.OpChanDeliver, 0)
		apply(ch, machine.OpChanDeliver, 0)
	}
	for i := 0; i < cowBufLen; i++ {
		apply(cowBuf, machine.OpBufferWrite, i)
	}
	return m
}

// TestCloneIntoChannelAllocs pins that forking a memory with full queues
// into a recycled target copies no queue: CloneInto allocates nothing.
func TestCloneIntoChannelAllocs(t *testing.T) {
	m := fullCOWMemory(t)
	n := m.Clone() // warm target
	if avg := testing.AllocsPerRun(100, func() { m.CloneInto(n) }); avg != 0 {
		t.Fatalf("CloneInto of full queues allocates %.1f times, want 0", avg)
	}
}
