package sim

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// routeStepper cycles through a fixed route of instructions, one per step,
// and folds no results: its local state is its route position and, with a
// budget, the steps left before it decides its input. The route (locations
// included) is part of the stepper's identity, so its keys fold every route
// location in route order. A budget of 0 loops forever, which lets a run
// revisit a configuration that differs only in, say, the drops consumed.
type routeStepper struct {
	route []OpInfo // shared between forks, never written
	input int
	pc    int
	left  int // steps before deciding; 0 = never decides
}

func (s *routeStepper) Poise() *OpInfo {
	if s.done() {
		return nil
	}
	return &s.route[s.pc]
}

func (s *routeStepper) done() bool { return s.left < 0 }

func (s *routeStepper) Resume(machine.Value) bool {
	s.pc = (s.pc + 1) % len(s.route)
	if s.left > 0 {
		if s.left--; s.left == 0 {
			s.left = -1
		}
	}
	return s.done()
}

func (s *routeStepper) Outcome() (bool, int, error) { return s.done(), s.input, nil }
func (s *routeStepper) Halt()                       {}
func (s *routeStepper) ForkInto(Stepper) Stepper    { f := *s; return &f }

func (s *routeStepper) key(relabel func(int) int) uint64 {
	h := machine.Mix64(uint64(s.input)<<32 ^ uint64(s.pc)<<16 ^ uint64(s.left+1))
	for _, op := range s.route {
		h = machine.Mix64(h ^ uint64(relabel(op.Loc)))
	}
	return h
}

func (s *routeStepper) StateKey() uint64 { return s.key(func(loc int) int { return loc }) }

// symRouteStepper is routeStepper with a SymStateKey: the route is its only
// reference to locations, and its code never reads its pid.
type symRouteStepper struct{ routeStepper }

func (s *symRouteStepper) ForkInto(Stepper) Stepper                     { f := *s; return &f }
func (s *symRouteStepper) SymStateKey(relabel func(loc int) int) uint64 { return s.key(relabel) }

// symPair is two systems built from one fuzzed layout, the second the first's
// image under a location permutation sigma and a process permutation pi.
type symPair struct {
	a, b  *System
	sigma []int // location of A -> location of B
	pi    []int // process of A -> process of B
}

// byteReader hands out the fuzz input a byte at a time, 0 once exhausted.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// buildSymPair decodes a layout: memory size and process count, flags (a
// channel location; lossy rather than reordering delivery; one process
// without a SymStateKey, so the system takes the fallback), the initial
// cell values (small, so equal-content cells are common), each process's
// input, budget and route, and the seed of the two permutations.
func buildSymPair(layout []byte) symPair {
	r := byteReader(layout)
	m := 1 + r.next()%16
	n := 2 + r.next()%3
	flags := r.next()
	chans, lossy, plain := flags&1 != 0, flags&2 != 0, flags&4 != 0
	init := make([]int64, m)
	for i := range init {
		init[i] = int64(r.next() % 4)
	}
	chanLoc := -1
	if chans {
		chanLoc = m - 1
		init[chanLoc] = 0
	}
	type proc struct {
		input, left int
		route       []OpInfo
	}
	procs := make([]proc, n)
	for i := range procs {
		p := &procs[i]
		p.input = r.next() % 3
		p.left = r.next() % 6
		msg := []machine.Value{machine.Int(int64(p.input))}
		for k := 1 + r.next()%3; k > 0; k-- {
			b := r.next()
			loc := b % m
			switch {
			case loc == chanLoc && b&0x80 == 0:
				p.route = append(p.route, Send(loc, msg))
			case loc == chanLoc:
				p.route = append(p.route, Recv(loc))
			case b&0x80 == 0:
				p.route = append(p.route, OpInfo{Loc: loc, Op: machine.OpWrite, Args: msg})
			default:
				p.route = append(p.route, OpInfo{Loc: loc, Op: machine.OpRead})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(r.next())))
	sigma, pi := rng.Perm(m), rng.Perm(n)
	build := func(loc func(int) int, pid func(int) int) *System {
		vals := make(map[int]machine.Value)
		for l, v := range init {
			if v != 0 {
				vals[loc(l)] = machine.Int(v)
			}
		}
		opts := []machine.Option{machine.WithInitial(vals)}
		if chans {
			opts = append(opts, machine.WithChannels([]machine.ChannelSpec{{Loc: loc(chanLoc), Kind: machine.ChanFIFO, Cap: 2}}))
		}
		mem := machine.New(machine.SetReadWrite.WithChannelOps(), m, opts...)
		inputs := make([]int, n)
		steppers := make([]Stepper, n)
		for i, p := range procs {
			route := make([]OpInfo, len(p.route))
			for j, op := range p.route {
				op.Loc = loc(op.Loc)
				route[j] = op
			}
			st := routeStepper{route: route, input: p.input, left: p.left}
			inputs[pid(i)] = p.input
			if plain && i == 0 {
				steppers[pid(i)] = &st
			} else {
				steppers[pid(i)] = &symRouteStepper{st}
			}
		}
		d := Delivery{Mode: DeliverReorder}
		if lossy {
			d = Delivery{Mode: DeliverLossy, MaxDrops: 2}
		}
		return NewSystemSteppers(mem, inputs, steppers, WithDelivery(d))
	}
	id := func(x int) int { return x }
	return symPair{
		a:     build(id, id),
		b:     build(func(l int) int { return sigma[l] }, func(p int) int { return pi[p] }),
		sigma: sigma,
		pi:    pi,
	}
}

// mapPid carries an A pid to B: a process through pi, a delivery branch
// unchanged (one channel, so the virtual pid layout is the same).
func (p symPair) mapPid(pid int) int {
	if pid < len(p.pi) {
		return p.pi[pid]
	}
	return pid
}

// FuzzSymHash128 drives a fuzzed schedule over a symPair and checks, after
// every operation, that SymHash128 is the byte-stream fingerprint of
// AppendSymStateKey's key and that the two induce the same equivalence on
// every configuration the run has reached in either system: equal byte keys
// hash equally and equal hashes come from equal byte keys.
// The exact pairs (AppendStateKey, StateHash128) join the same set, which
// keeps the fallback's hashes out of the exact space. Both systems hash on
// one scratch, the byte keys on fresh ones. ops is read in pairs: the low
// two bits of the first byte pick the operation — step corresponding pids,
// step independently chosen pids, crash corresponding processes — and the
// second byte is its argument. The seed corpus (testdata/fuzz) includes one
// input for each planted fault it is known to catch: a rank table not reset
// between hashes, a dropped (hash, location) tie-break, a missing drop-budget
// fold and an untagged fallback.
func FuzzSymHash128(f *testing.F) {
	f.Fuzz(checkSymHash128Ops)
}

// checkSymHash128Ops is FuzzSymHash128's body: it runs one (layout, ops)
// input and fails t at the first configuration whose hash and byte key
// disagree.
func checkSymHash128Ops(t *testing.T, layout, ops []byte) {
	if len(ops) > 256 {
		ops = ops[:256]
	}
	p := buildSymPair(layout)
	defer p.a.Close()
	defer p.b.Close()
	byKey := make(map[string]machine.Hash128)
	byFP := make(map[machine.Hash128]string)
	record := func(key []byte, fp machine.Hash128) {
		if prev, hit := byKey[string(key)]; hit && prev != fp {
			t.Fatalf("equal keys, distinct fingerprints: %x vs %x (key %q)", prev, fp, key)
		}
		if prev, hit := byFP[fp]; hit && prev != string(key) {
			t.Fatalf("fingerprint %x shared by distinct keys:\n%q\n%q", fp, prev, key)
		}
		byKey[string(key)] = fp
		byFP[fp] = string(key)
	}
	var sc SymScratch
	check := func(s *System) {
		fp, ok := s.SymHash128(&sc)
		key, kok := s.AppendSymStateKey(nil, nil)
		if ok != kok {
			t.Fatalf("ok flags disagree: SymHash128 %v, AppendSymStateKey %v", ok, kok)
		}
		if want := machine.NewByteHash128().Bytes(key).Sum(); ok && fp != want {
			t.Fatalf("SymHash128 %x, byte-key fingerprint %x (key %q)", fp, want, key)
		}
		record(key, fp)
		efp, _ := s.StateHash128()
		exact, _ := s.AppendStateKey(nil)
		record(exact, efp)
	}
	check(p.a)
	check(p.b)
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], int(ops[i+1])
		switch op & 3 {
		case 0, 3: // step corresponding pids where both are live
			la := p.a.AppendLive(nil)
			if len(la) == 0 {
				continue
			}
			pid := la[arg%len(la)]
			p.a.Step(pid)
			if q := p.mapPid(pid); q <= p.b.MaxPid() && p.b.Live(q) {
				p.b.Step(q)
			}
		case 1: // step independently chosen pids: the systems diverge
			if la := p.a.AppendLive(nil); len(la) > 0 {
				p.a.Step(la[arg%len(la)])
			}
			if lb := p.b.AppendLive(nil); len(lb) > 0 {
				p.b.Step(lb[(arg>>4)%len(lb)])
			}
		case 2:
			pid := arg % p.a.N()
			p.a.Crash(pid)
			p.b.Crash(p.pi[pid])
		}
		check(p.a)
		check(p.b)
	}
}

// TestSymHash128Random runs FuzzSymHash128's body over a fixed-seed stream
// of generated inputs: layouts long enough to set every field buildSymPair
// decodes, and schedules of up to 128 operations. It covers inputs past the
// seed corpus in every plain test run, where the fuzz engine itself stalls
// after a few seconds on small hosts.
func TestSymHash128Random(t *testing.T) {
	const inputs = 5000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < inputs; i++ {
		layout, ops := randBytes(rng, 64), randBytes(rng, 256)
		checkRandomInput(t, i, func(t *testing.T) { checkSymHash128Ops(t, layout, ops) },
			"layout %x ops %x", layout, ops)
	}
	t.Logf("%d inputs", inputs)
}

// TestSymHash128Allocs: with a warm scratch, SymHash128 allocates nothing —
// on a shared-memory system with equal-content cells, on a channel system
// (the drop fold), and on the StateHash128 fallback.
func TestSymHash128Allocs(t *testing.T) {
	layouts := map[string][]byte{
		"shm":      {6, 1, 0, 1, 1, 2, 3, 1, 0, 0, 2, 2, 0x81, 3, 1, 1, 0x84},
		"channels": {4, 1, 3, 2, 1, 0, 0, 0, 0, 2, 3, 0x03, 1, 0, 1, 0x83},
		"fallback": {4, 1, 4, 2, 1, 0, 3, 0, 0, 1, 2, 1, 3, 0},
	}
	for name, layout := range layouts {
		t.Run(name, func(t *testing.T) {
			p := buildSymPair(layout)
			defer p.a.Close()
			defer p.b.Close()
			sys := p.a
			for k := 0; k < 3; k++ {
				if live := sys.AppendLive(nil); len(live) > 0 {
					sys.Step(live[k%len(live)])
				}
			}
			var sc SymScratch
			if _, ok := sys.SymHash128(&sc); !ok {
				t.Fatal("no symmetric hash")
			}
			if allocs := testing.AllocsPerRun(100, func() { sys.SymHash128(&sc) }); allocs != 0 {
				t.Fatalf("warm SymHash128 allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// TestSymHash128Permuted: a configuration and its image under a location
// and a process permutation hash equally. The layout references only
// non-zero cells of distinct contents, so no physical-index tie-break or
// zero-cell labeling can tell the images apart, and the byte keys agree.
func TestSymHash128Permuted(t *testing.T) {
	distinct := 0
	for seed := 0; seed < 32; seed++ {
		p := buildSymPair([]byte{3, 1, 0, 1, 2, 3, 0, 0, 1, 0, 0, 1, 2, 0, 1, 2, 3, 1, 2, 0x81, byte(seed)})
		ka, _ := p.a.SymStateKey()
		kb, _ := p.b.SymStateKey()
		var sc SymScratch
		ha, _ := p.a.SymHash128(&sc)
		hb, _ := p.b.SymHash128(&sc)
		if ka != kb || ha != hb {
			t.Fatalf("seed %d (sigma %v pi %v): keys equal %v, hashes equal %v",
				seed, p.sigma, p.pi, ka == kb, ha == hb)
		}
		ea, _ := p.a.StateHash128()
		if eb, _ := p.b.StateHash128(); ea != eb {
			distinct++
		}
		p.a.Close()
		p.b.Close()
	}
	if distinct == 0 {
		t.Fatal("no permutation moved the exact hash: the images were never distinct")
	}
}
