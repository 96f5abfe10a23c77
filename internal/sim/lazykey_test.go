package sim_test

// The Body adapters hash their result logs lazily: StateKey folds the
// results logged since the previous query. These tests pin the lazy key to
// an eager oracle that folds every result the moment Step returns it, over
// the coroutine rows of Table 1, both adapters, forks and log overflow.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// eagerKey is a Body adapter's local-state key computed eagerly from the
// results its process consumed: the input, the rolling hash of the results
// and their count.
type eagerKey struct {
	input   int
	hash    uint64
	resumes uint64
}

func (k *eagerKey) add(res machine.Value) {
	k.hash = machine.Mix64(k.hash ^ machine.HashValue(res))
	k.resumes++
}

func (k eagerKey) key() uint64 {
	return machine.Mix64(machine.Mix64(uint64(k.input)^k.hash) ^ k.resumes)
}

// keyedRun drives a system under a random schedule beside its oracle.
type keyedRun struct {
	name   string
	sys    *sim.System
	oracle []eagerKey
	sched  *sim.Random
	stride int // query process pid's key at step i when (i+pid)%stride == 0
	steps  int
}

func newKeyedRun(t *testing.T, name string, sys *sim.System, inputs []int, seed int64, stride int) *keyedRun {
	t.Helper()
	if sys.ForksNatively() {
		t.Fatalf("%s: expected Body adapters", name)
	}
	r := &keyedRun{name: name, sys: sys, sched: sim.NewRandom(seed), stride: stride}
	for _, in := range inputs {
		r.oracle = append(r.oracle, eagerKey{input: in})
	}
	return r
}

// fork forks the run; the fork continues under its own schedule.
func (r *keyedRun) fork(t *testing.T, name string, seed int64) *keyedRun {
	t.Helper()
	fk, err := r.sys.Fork()
	if err != nil {
		t.Fatalf("%s: fork: %v", r.name, err)
	}
	return &keyedRun{name: name, sys: fk, oracle: slices.Clone(r.oracle), sched: sim.NewRandom(seed), stride: r.stride, steps: r.steps}
}

// advance takes up to k steps, checking keys after each; it reports whether
// any process is still live.
func (r *keyedRun) advance(t *testing.T, k int) bool {
	t.Helper()
	for ; k > 0; k-- {
		pid := r.sched.Next(r.sys)
		if pid < 0 {
			return false
		}
		st, err := r.sys.Step(pid)
		if err != nil {
			t.Fatalf("%s step %d: %v", r.name, r.steps, err)
		}
		r.oracle[pid].add(st.Result)
		r.steps++
		r.check(t, false)
	}
	return true
}

// check compares the live processes' keys with the oracle: those selected
// by the stride, or all of them.
func (r *keyedRun) check(t *testing.T, all bool) {
	t.Helper()
	for pid := range r.oracle {
		if !r.sys.Live(pid) || (!all && (r.steps+pid)%r.stride != 0) {
			continue
		}
		got, ok := r.sys.ProcStateKey(pid)
		if !ok {
			t.Fatalf("%s: process %d has no state key", r.name, pid)
		}
		if want := r.oracle[pid].key(); got != want {
			t.Fatalf("%s step %d: process %d key %x, eager oracle %x", r.name, r.steps, pid, got, want)
		}
	}
}

// bodyRows are the Table 1 rows whose Body forms the adapters run here
// (their compiled handles run the steppers twinned with these Bodies).
func bodyRows(n int) map[string]*consensus.Protocol {
	return map[string]*consensus.Protocol{
		"T1.1":  consensus.TASTracks(n),
		"T1.3":  consensus.Registers(n),
		"T1.5":  consensus.Swap(n),
		"T1.6":  consensus.Buffered(n, 2),
		"T1.MA": consensus.BufferedMultiAssign(n, 2),
	}
}

// adapterEngines builds a Body row's system on each Body adapter: the
// coroutine adapter of the step-VM and the goroutine oracle.
var adapterEngines = map[string]func(pr *consensus.Protocol, inputs []int) *sim.System{
	"coroutine": func(pr *consensus.Protocol, inputs []int) *sim.System {
		return sim.NewSystem(pr.NewMemory(), inputs, pr.Body)
	},
	"goroutine": func(pr *consensus.Protocol, inputs []int) *sim.System {
		return sim.NewGoroutineSystem(pr.NewMemory(), inputs, pr.Body)
	},
}

// TestLazyStateKeyMatchesEagerOracle: at every step of a coroutine row, on a
// fork against its source and after both diverge, and on a fork of a fork,
// the lazily folded key equals the eager one. Stride 1 queries every
// process at every step; strides 3 and 1000 leave results unfolded across
// steps and across the fork.
func TestLazyStateKeyMatchesEagerOracle(t *testing.T) {
	const n = 3
	inputs := []int{1, 2, 0}
	for engine, build := range adapterEngines {
		for row, pr := range bodyRows(n) {
			for _, stride := range []int{1, 3, 1000} {
				name := fmt.Sprintf("%s/%s/stride%d", engine, row, stride)
				src := newKeyedRun(t, name, build(pr, inputs), inputs, 7, stride)
				src.advance(t, 25)
				fk := src.fork(t, name+"/fork", 11)
				// At the fork point both sides hold the same history.
				fk.check(t, true)
				src.check(t, true)
				// Interleave the two: a log shared without clipping would
				// let each side's appends overwrite the other's.
				for i := 0; i < 30; i++ {
					src.advance(t, 1)
					fk.advance(t, 1)
				}
				ffk := fk.fork(t, name+"/fork/fork", 13)
				fk.advance(t, 30)
				ffk.advance(t, 30)
				for _, r := range []*keyedRun{src, fk, ffk} {
					r.check(t, true)
					r.sys.Close()
				}
			}
		}
	}
}

// TestLazyStateKeyAcrossLogOverflow: with the replay log capped at a few
// results, a process that outgrows it drops the log and hashes eagerly; its
// key must continue the same chain, including the results it logged but had
// not folded yet (stride 1000 keys no process before the overflow). A fork
// taken before the overflow keeps its shared copy of the log and its keys.
func TestLazyStateKeyAcrossLogOverflow(t *testing.T) {
	defer sim.SetMaxReplayLog(6)()
	const n = 3
	inputs := []int{2, 0, 1}
	for engine, build := range adapterEngines {
		for row, pr := range bodyRows(n) {
			for _, stride := range []int{3, 1000} {
				name := fmt.Sprintf("%s/%s/stride%d", engine, row, stride)
				src := newKeyedRun(t, name, build(pr, inputs), inputs, 5, stride)
				src.advance(t, 8)
				fk := src.fork(t, name+"/fork", 9)
				src.advance(t, 60)
				fk.advance(t, 4)
				for _, r := range []*keyedRun{src, fk} {
					r.check(t, true)
					r.sys.Close()
				}
			}
		}
	}
}

// TestConcurrentBodyStateKeys: a Body system's first key folds its pending
// results; keys and Forks taken concurrently from many goroutines must
// agree with a twin system stepped identically.
func TestConcurrentBodyStateKeys(t *testing.T) {
	pr := consensus.Buffered(3, 2)
	inputs := []int{0, 1, 2}
	build := func() *sim.System {
		sys := sim.NewSystem(pr.NewMemory(), inputs, pr.Body)
		sched := sim.NewRandom(3)
		for i := 0; i < 30; i++ {
			pid := sched.Next(sys)
			if pid < 0 {
				break
			}
			if _, err := sys.Step(pid); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	twin := build()
	want, ok := twin.StateKey()
	twin.Close()
	if !ok {
		t.Fatal("Body system must be keyable")
	}
	sys := build()
	defer sys.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 20; i++ {
				if i%5 == g%5 {
					fk, err := sys.Fork()
					if err != nil {
						t.Error(err)
						return
					}
					key, _ := fk.StateKey()
					fk.Close()
					if key != want {
						t.Error("fork's state key diverged")
						return
					}
				}
				key, ok := sys.AppendStateKey(buf[:0])
				buf = key[:0]
				if !ok || string(key) != want {
					t.Error("concurrent state key diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}
