package history

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func newBufferMem(l int) *machine.Memory {
	return machine.New(machine.SetBuffers(l), 1)
}

// TestSequentialAppendGet checks basic history semantics from one process.
func TestSequentialAppendGet(t *testing.T) {
	sys := sim.NewSystem(newBufferMem(3), []int{0}, func(p *sim.Proc) int {
		h := New(p, 0)
		if got := h.GetHistory(); len(got) != 0 {
			t.Errorf("fresh history = %v, want empty", got)
		}
		for i := 0; i < 10; i++ {
			h.Append(fmt.Sprintf("v%d", i))
			got := h.GetHistory()
			if len(got) != i+1 {
				t.Fatalf("after %d appends: %d entries", i+1, len(got))
			}
			for j, e := range got {
				if e.Val != fmt.Sprintf("v%d", j) {
					t.Fatalf("entry %d = %v", j, e)
				}
			}
		}
		return 0
	})
	defer sys.Close()
	if _, err := sys.Run(sim.Solo{PID: 0}, 100_000); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentChainProperty runs l concurrent appenders plus readers under
// random schedules and validates the linearizability invariants of
// Lemma 6.1: (1) every returned history is duplicate-free; (2) per-appender
// subsequences respect sequence-number order; (3) all returned histories
// form a chain under the prefix order (they are snapshots of one growing
// sequence); (4) the final history contains every append exactly once.
func TestConcurrentChainProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		l := 2 + int(seed%3) // buffer capacity = number of appenders
		appends := 6
		mem := newBufferMem(l)
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		var observed [][]Entry
		record := func(h []Entry) {
			<-mu
			observed = append(observed, h)
			mu <- struct{}{}
		}
		body := func(p *sim.Proc) int {
			h := New(p, 0)
			if p.ID() < l { // appender
				for i := 0; i < appends; i++ {
					h.Append(fmt.Sprintf("p%d-%d", p.ID(), i))
					record(h.GetHistory())
				}
			} else { // reader
				for i := 0; i < appends*2; i++ {
					record(h.GetHistory())
				}
			}
			return 0
		}
		n := l + 2 // l appenders, 2 readers
		sys := sim.NewSystem(mem, make([]int, n), body)
		if _, err := sys.Run(sim.NewRandom(seed), 1_000_000); err != nil {
			t.Fatal(err)
		}
		// Final read.
		final := Reconstruct(sys.Mem().PeekBuffer(0))
		// PeekBuffer returns unpadded contents; pad to capacity as a
		// buffer-read would.
		raw := make([]machine.Value, l)
		unpadded := sys.Mem().PeekBuffer(0)
		copy(raw[l-len(unpadded):], unpadded)
		final = Reconstruct(raw)
		sys.Close()

		if len(final) != l*appends {
			t.Fatalf("seed %d: final history has %d entries, want %d: %v",
				seed, len(final), l*appends, final)
		}
		checkHistory := func(h []Entry) {
			seen := make(map[string]bool)
			lastSeq := make(map[int]int64)
			for _, e := range h {
				key := fmt.Sprintf("%d.%d", e.PID, e.Seq)
				if seen[key] {
					t.Fatalf("seed %d: duplicate %s in %v", seed, key, h)
				}
				seen[key] = true
				if e.Seq <= lastSeq[e.PID] {
					t.Fatalf("seed %d: appender %d out of order in %v", seed, e.PID, h)
				}
				lastSeq[e.PID] = e.Seq
			}
		}
		isPrefix := func(a, b []Entry) bool {
			if len(a) > len(b) {
				return false
			}
			for i := range a {
				if !a[i].sameID(b[i]) {
					return false
				}
			}
			return true
		}
		checkHistory(final)
		for _, h := range observed {
			checkHistory(h)
			if !isPrefix(h, final) {
				t.Fatalf("seed %d: observed history not a prefix of final:\n%v\nfinal %v",
					seed, h, final)
			}
		}
		// Chain property across all observations.
		for i := 0; i < len(observed); i++ {
			for j := i + 1; j < len(observed); j++ {
				a, b := observed[i], observed[j]
				if len(a) > len(b) {
					a, b = b, a
				}
				if !isPrefix(a, b) {
					t.Fatalf("seed %d: histories %v and %v are not chain-ordered", seed, a, b)
				}
			}
		}
	}
}

// TestFigure1Scenario replays the exact overlap pattern of Figure 1: all l
// appenders read the buffer (their embedded get-history) before any of them
// writes, so no carried history contains x1 — the case where the proof
// counts l concurrent appends. A subsequent reader must still reconstruct
// the complete history.
func TestFigure1Scenario(t *testing.T) {
	for _, l := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("l=%d", l), func(t *testing.T) {
			mem := newBufferMem(l)
			body := func(p *sim.Proc) int {
				h := New(p, 0)
				h.Append(fmt.Sprintf("x%d", p.ID()+1))
				return 0
			}
			n := l + 1
			bodies := make([]sim.Body, n)
			for i := 0; i < l; i++ {
				bodies[i] = body
			}
			var got []Entry
			bodies[l] = func(p *sim.Proc) int { // the reader
				got = New(p, 0).GetHistory()
				return 0
			}
			sys := sim.NewSystemBodies(mem, make([]int, n), bodies)
			defer sys.Close()
			// Phase R1..Rl: every appender performs its embedded read.
			for pid := 0; pid < l; pid++ {
				if _, err := sys.Step(pid); err != nil {
					t.Fatal(err)
				}
			}
			// Phase W1..Wl: the writes land in order.
			for pid := 0; pid < l; pid++ {
				if _, err := sys.Step(pid); err != nil {
					t.Fatal(err)
				}
			}
			// The reader reconstructs.
			if _, err := sys.Step(l); err != nil {
				t.Fatal(err)
			}
			if len(got) != l {
				t.Fatalf("reconstructed %d entries, want %d: %v", len(got), l, got)
			}
			for i, e := range got {
				if e.Val != fmt.Sprintf("x%d", i+1) {
					t.Fatalf("entry %d = %v, want x%d", i, e, i+1)
				}
			}
		})
	}
}

// TestPartialOverlap drives a mixed scenario: some appends carry long
// histories, others race (the "h contains x1" branch of the proof), under
// scripted schedules chosen to hit both reconstruction branches.
func TestPartialOverlap(t *testing.T) {
	l := 3
	mem := newBufferMem(l)
	body := func(p *sim.Proc) int {
		h := New(p, 0)
		for i := 0; i < 4; i++ {
			h.Append(fmt.Sprintf("p%d-%d", p.ID(), i))
		}
		return 0
	}
	sys := sim.NewSystem(mem, make([]int, l), body)
	defer sys.Close()
	rng := rand.New(rand.NewSource(3))
	if _, err := sys.Run(sim.NewRandom(rng.Int63()), 1_000_000); err != nil {
		t.Fatal(err)
	}
	raw := make([]machine.Value, l)
	unpadded := sys.Mem().PeekBuffer(0)
	copy(raw[l-len(unpadded):], unpadded)
	final := Reconstruct(raw)
	if len(final) != 12 {
		t.Fatalf("final history %d entries, want 12", len(final))
	}
}

// TestRegistersOverHistory checks the Lemma 6.2 register adapter.
func TestRegistersOverHistory(t *testing.T) {
	l := 3
	mem := newBufferMem(l)
	body := func(p *sim.Proc) int {
		r := NewRegisters(p, 0)
		for i := 0; i < 5; i++ {
			r.Write(p.ID(), fmt.Sprintf("p%d-v%d", p.ID(), i))
		}
		vals, _ := r.ReadAll([]int{0, 1, 2})
		for s := 0; s < l; s++ {
			want := fmt.Sprintf("p%d-v4", s)
			if p.ID() == s && vals[s] != want {
				t.Errorf("own register reads %v, want %v", vals[s], want)
			}
		}
		return 0
	}
	sys := sim.NewSystem(mem, make([]int, l), body)
	defer sys.Close()
	if _, err := sys.Run(&sim.RoundRobin{}, 1_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestRegistersVersioning checks the fingerprint changes when and only when
// some register changes.
func TestRegistersVersioning(t *testing.T) {
	mem := newBufferMem(2)
	sys := sim.NewSystem(mem, []int{0}, func(p *sim.Proc) int {
		r := NewRegisters(p, 0)
		_, fp0 := r.ReadAll([]int{0, 1})
		_, fp1 := r.ReadAll([]int{0, 1})
		if fp0 != fp1 {
			t.Error("idle fingerprints differ")
		}
		r.Write(0, "x")
		_, fp2 := r.ReadAll([]int{0, 1})
		if fp2 == fp1 {
			t.Error("fingerprint did not change after write")
		}
		return 0
	})
	defer sys.Close()
	if _, err := sys.Run(sim.Solo{PID: 0}, 100_000); err != nil {
		t.Fatal(err)
	}
}

// TestNewestSlotsMatchesReadAll pins NewestSlots, the forkable register
// machines' collect decoder, to Registers.ReadAll's semantics over the
// reconstructed history: after every step of random concurrent writers
// (l slot owners, writing their own slot, at an offset so windows need not
// start at 0), every window of slots decodes to the newest entry per slot
// that a forward scan of Reconstruct's history finds.
func TestNewestSlotsMatchesReadAll(t *testing.T) {
	const offset = 3
	for seed := int64(0); seed < 30; seed++ {
		l := 1 + int(seed%4)
		mem := newBufferMem(l)
		body := func(p *sim.Proc) int {
			r := NewRegisters(p, 0)
			for i := 0; i < 4+p.ID(); i++ {
				r.Write(offset+p.ID(), fmt.Sprintf("p%d-%d", p.ID(), i))
			}
			return 0
		}
		sys := sim.NewSystem(mem, make([]int, l), body)
		sched := sim.NewRandom(seed)
		for step := 0; ; step++ {
			raw := make([]machine.Value, l)
			buf := sys.Mem().PeekBuffer(0)
			copy(raw[l-len(buf):], buf)
			hist := Reconstruct(raw)
			for lo := offset; lo < offset+l; lo++ {
				for width := 1; lo+width <= offset+l; width++ {
					wantSeq := make([]int64, width)
					wantVal := make([]any, width)
					for _, e := range hist {
						sl := e.Val.(slotted)
						if i := sl.slot - lo; i >= 0 && i < width {
							wantSeq[i], wantVal[i] = e.Seq, sl.val
						}
					}
					seqs := make([]int64, width)
					vals := make([]any, width)
					visits := make([]int, width)
					NewestSlots(raw, lo, seqs, func(i int, v any) { vals[i] = v; visits[i]++ })
					for i := range seqs {
						if want := min(seqs[i], 1); int64(visits[i]) != want {
							t.Fatalf("seed %d step %d slots [%d,%d): slot %d with sequence %d visited %d times",
								seed, step, lo, lo+width, lo+i, seqs[i], visits[i])
						}
						if seqs[i] != wantSeq[i] || (seqs[i] != 0 && vals[i] != wantVal[i]) {
							t.Fatalf("seed %d step %d slots [%d,%d): slot %d newest (%d, %v), ReadAll finds (%d, %v)",
								seed, step, lo, lo+width, lo+i, seqs[i], vals[i], wantSeq[i], wantVal[i])
						}
					}
				}
			}
			pid := sched.Next(sys)
			if pid < 0 {
				break
			}
			if _, err := sys.Step(pid); err != nil {
				t.Fatal(err)
			}
		}
		sys.Close()
	}
}
