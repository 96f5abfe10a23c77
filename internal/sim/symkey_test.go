package sim

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/machine"
)

// symProbeStepper is a minimal location-uniform SymKeyer stepper: it spins
// reading its target location, which it carries in its state (so a location
// relabeling genuinely relabels it), tagged with an input.
type symProbeStepper struct {
	loc   int
	input int
	read  OpInfo // the read of loc
}

func newSymProbeStepper(loc, input int) *symProbeStepper {
	return &symProbeStepper{loc: loc, input: input, read: OpInfo{Loc: loc, Op: machine.OpRead}}
}

func (s *symProbeStepper) Poise() *OpInfo { return &s.read }

func (s *symProbeStepper) Resume(machine.Value) bool   { return false }
func (s *symProbeStepper) Outcome() (bool, int, error) { return false, 0, nil }
func (s *symProbeStepper) Halt()                       {}
func (s *symProbeStepper) ForkInto(Stepper) Stepper    { f := *s; return &f }
func (s *symProbeStepper) StateKey() uint64 {
	return machine.Mix64(uint64(s.input)<<8 ^ uint64(s.loc) ^ 0x73796d70)
}

func (s *symProbeStepper) SymStateKey(relabel func(int) int) uint64 {
	return machine.Mix64(uint64(s.input)<<8 ^ uint64(relabel(s.loc)) ^ 0x73796d70)
}

// probeSystem builds a read-write system over size locations with the given
// initial values and one symProbeStepper per (loc, input) pair.
func probeSystem(t *testing.T, size int, initial map[int]machine.Value, procs [][2]int) *System {
	t.Helper()
	var opts []machine.Option
	if initial != nil {
		opts = append(opts, machine.WithInitial(initial))
	}
	mem := machine.New(machine.SetReadWrite, size, opts...)
	steppers := make([]Stepper, len(procs))
	inputs := make([]int, len(procs))
	for i, p := range procs {
		steppers[i] = newSymProbeStepper(p[0], p[1])
		inputs[i] = p[1]
	}
	return NewSystemSteppers(mem, inputs, steppers)
}

func symKeyOf(t *testing.T, s *System) string {
	t.Helper()
	key, ok := s.SymStateKey()
	if !ok {
		t.Fatal("SymStateKey unavailable")
	}
	return key
}

// TestSymStateKeyLocationSymmetry: a configuration and its image under a
// location permutation — memory contents permuted, every process's location
// reference relabeled the same way — get the same symmetric key but
// different exact keys.
func TestSymStateKeyLocationSymmetry(t *testing.T) {
	a := probeSystem(t, 2,
		map[int]machine.Value{0: machine.Int(5), 1: machine.Int(9)},
		[][2]int{{0, 0}, {1, 1}})
	defer a.Close()
	b := probeSystem(t, 2,
		map[int]machine.Value{0: machine.Int(9), 1: machine.Int(5)},
		[][2]int{{1, 0}, {0, 1}})
	defer b.Close()

	if ka, kb := symKeyOf(t, a), symKeyOf(t, b); ka != kb {
		t.Fatalf("permuted configurations got different symmetric keys\n%q\n%q", ka, kb)
	}
	ea, _ := a.StateKey()
	eb, _ := b.StateKey()
	if ea == eb {
		t.Fatal("exact keys unexpectedly merged the permuted configurations")
	}
}

// TestSymStateKeyDistinguishesReferences: equal cell multisets are not
// enough — which cell a process references must survive canonicalization.
func TestSymStateKeyDistinguishesReferences(t *testing.T) {
	initial := map[int]machine.Value{0: machine.Int(5), 1: machine.Int(9)}
	// Both processes on the 5-cell vs one on each.
	a := probeSystem(t, 2, initial, [][2]int{{0, 0}, {0, 0}})
	defer a.Close()
	b := probeSystem(t, 2, initial, [][2]int{{0, 0}, {1, 0}})
	defer b.Close()
	if symKeyOf(t, a) == symKeyOf(t, b) {
		t.Fatal("symmetric key merged configurations with different reference structure")
	}

	// Same for untouched (zero) cells: both on loc 3 vs locs 3 and 4. The
	// conservative zero-cell labeling must keep these apart.
	c := probeSystem(t, 5, nil, [][2]int{{3, 0}, {3, 0}})
	defer c.Close()
	d := probeSystem(t, 5, nil, [][2]int{{3, 0}, {4, 0}})
	defer d.Close()
	if symKeyOf(t, c) == symKeyOf(t, d) {
		t.Fatal("symmetric key merged distinct zero-cell reference structures")
	}
}

// TestSymStateKeyProcessSymmetry: permuting the process vector (uniform
// code) leaves the symmetric key unchanged while the exact key, which is
// pid-indexed, differs.
func TestSymStateKeyProcessSymmetry(t *testing.T) {
	a := probeSystem(t, 1, nil, [][2]int{{0, 0}, {0, 1}})
	defer a.Close()
	b := probeSystem(t, 1, nil, [][2]int{{0, 1}, {0, 0}})
	defer b.Close()
	if ka, kb := symKeyOf(t, a), symKeyOf(t, b); ka != kb {
		t.Fatalf("process permutation changed the symmetric key\n%q\n%q", ka, kb)
	}
	ea, _ := a.StateKey()
	eb, _ := b.StateKey()
	if ea == eb {
		t.Fatal("exact keys unexpectedly merged the permuted process vectors")
	}

	// Different inputs still poised on their input-bearing state must NOT
	// merge with a same-shaped system holding other inputs.
	c := probeSystem(t, 1, nil, [][2]int{{0, 1}, {0, 1}})
	defer c.Close()
	if symKeyOf(t, a) == symKeyOf(t, c) {
		t.Fatal("symmetric key merged distinct input multisets")
	}
}

// TestSymStateKeyBodyFallback: a system with live keyed steppers that do
// not implement SymKeyer must fall back to the exact key, byte-for-byte,
// behind the fallback tag — so symmetric explorations of such protocols
// behave exactly like exact ones.
func TestSymStateKeyBodyFallback(t *testing.T) {
	sys := raceSystem(2)
	defer sys.Close()
	exact, ok := sys.AppendStateKey(nil)
	if !ok {
		t.Fatal("exact key unavailable")
	}
	sym, ok := sys.AppendSymStateKey(nil, nil)
	if !ok {
		t.Fatal("fallback sym key unavailable")
	}
	if len(sym) == 0 || sym[0] != symKeyTagExact {
		t.Fatalf("fallback key not tagged exact: %q", sym)
	}
	if !bytes.Equal(sym[1:], exact) {
		t.Fatalf("fallback key diverged from the exact key\nexact %q\nsym   %q", exact, sym[1:])
	}
}

// symCASStepper gives the batch_test casStepper the two key extensions, so
// the terminal-entry test runs on the symmetric path.
type symCASStepper struct{ *casStepper }

func (c symCASStepper) StateKey() uint64 {
	return machine.Mix64(uint64(c.input) ^ 0x73636173)
}

func (c symCASStepper) SymStateKey(relabel func(int) int) uint64 {
	return machine.Mix64(c.StateKey() ^ uint64(relabel(0)))
}

// TestSymStateKeyMemoryComponent: the key's memory component must be
// exactly Memory.SymFingerprint64 — the documented orbit-canonical form —
// so a change to either canonicalization that diverges from the other
// fails here instead of silently splitting them.
func TestSymStateKeyMemoryComponent(t *testing.T) {
	sys := probeSystem(t, 3,
		map[int]machine.Value{0: machine.Int(5), 2: machine.Int(9)},
		[][2]int{{0, 0}, {2, 1}})
	defer sys.Close()
	key, ok := sys.AppendSymStateKey(nil, nil)
	if !ok || len(key) < 9 || key[0] != symKeyTagSym {
		t.Fatalf("unexpected symmetric key %q (ok=%v)", key, ok)
	}
	got := binary.LittleEndian.Uint64(key[1:9])
	if want := sys.Mem().SymFingerprint64(); got != want {
		t.Fatalf("key memory component %#x, SymFingerprint64 %#x", got, want)
	}
}

// TestSymStateKeyScratchReuse: reusing one SymScratch across keyings of
// different systems must not change any key.
func TestSymStateKeyScratchReuse(t *testing.T) {
	systems := []*System{
		probeSystem(t, 2, map[int]machine.Value{0: machine.Int(5)}, [][2]int{{0, 0}, {1, 1}}),
		probeSystem(t, 3, map[int]machine.Value{1: machine.Int(9), 2: machine.Int(4)}, [][2]int{{2, 1}}),
		probeSystem(t, 1, nil, [][2]int{{0, 0}, {0, 0}, {0, 1}}),
	}
	var sc SymScratch
	for i, sys := range systems {
		fresh, ok1 := sys.AppendSymStateKey(nil, nil)
		reused, ok2 := sys.AppendSymStateKey(nil, &sc)
		if !ok1 || !ok2 || !bytes.Equal(fresh, reused) {
			t.Fatalf("system %d: scratch reuse changed the key\nfresh  %q\nreused %q", i, fresh, reused)
		}
		sys.Close()
	}
}

// TestSymStateKeyTerminalEntries: decided processes merge as a multiset —
// which pid decided is not part of the orbit — while the decision values
// themselves stay distinguishing.
func TestSymStateKeyTerminalEntries(t *testing.T) {
	mk := func(inputs []int, step int) *System {
		steppers := make([]Stepper, len(inputs))
		for i, in := range inputs {
			steppers[i] = symCASStepper{newCASStepper(in)}
		}
		sys := NewSystemSteppers(machine.New(machine.SetCAS, 1), inputs, steppers)
		if _, err := sys.Step(step); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// The first CAS wins with its own input: stepping pid 1 or pid 2 of
	// inputs {0,1,1} leaves the same multiset {decided 1, live(0), live(1)}
	// — the orbit merges them; the exact pid-indexed key does not.
	a, b := mk([]int{0, 1, 1}, 1), mk([]int{0, 1, 1}, 2)
	defer a.Close()
	defer b.Close()
	if ka, kb := symKeyOf(t, a), symKeyOf(t, b); ka != kb {
		t.Fatalf("equivalent decided configurations got different symmetric keys\n%q\n%q", ka, kb)
	}
	ea, _ := a.StateKey()
	eb, _ := b.StateKey()
	if ea == eb {
		t.Fatal("exact keys unexpectedly merged the permuted decided processes")
	}
	// Different decision values must stay apart.
	c := mk([]int{0, 1, 2}, 2)
	defer c.Close()
	if symKeyOf(t, a) == symKeyOf(t, c) {
		t.Fatal("symmetric key merged configurations with different decided values")
	}
}
