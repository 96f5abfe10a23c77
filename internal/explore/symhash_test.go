package explore

import (
	"fmt"
	"testing"

	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

// keyHashSet checks that a relation between byte keys and fingerprints is
// a bijection over everything recorded into it: byte key → fingerprint and
// fingerprint → byte key must each be a function.
type keyHashSet struct {
	byKey map[string]machine.Hash128
	byFP  map[machine.Hash128]string
}

func newKeyHashSet() *keyHashSet {
	return &keyHashSet{byKey: make(map[string]machine.Hash128), byFP: make(map[machine.Hash128]string)}
}

func (s *keyHashSet) record(key []byte, fp machine.Hash128) error {
	if prev, hit := s.byKey[string(key)]; hit && prev != fp {
		return fmt.Errorf("equal keys, distinct fingerprints: %x vs %x (key %q)", prev, fp, key)
	}
	if prev, hit := s.byFP[fp]; hit && prev != string(key) {
		return fmt.Errorf("fingerprint %x shared by distinct keys:\n%q\n%q", fp, prev, key)
	}
	s.byKey[string(key)] = fp
	s.byFP[fp] = string(key)
	return nil
}

// symWalk visits every configuration a one-worker symmetric walk of f
// claims within depth steps: it fingerprints each with SymHash128 on one
// scratch reused across the whole walk, as a worker does, and expands a
// configuration only the first time its (fingerprint, depth) pair is seen.
func symWalk(t *testing.T, f Factory, depth int, visit func(sys *sim.System, fp machine.Hash128, ok bool)) {
	t.Helper()
	root, err := f()
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	type claim struct {
		fp    machine.Hash128
		depth int
	}
	seen := make(map[claim]bool)
	var sc sim.SymScratch
	var rec func(sys *sim.System, d int)
	rec = func(sys *sim.System, d int) {
		fp, ok := sys.SymHash128(&sc)
		visit(sys, fp, ok)
		if ok {
			if seen[claim{fp, d}] {
				return
			}
			seen[claim{fp, d}] = true
		}
		if d == depth {
			return
		}
		for _, pid := range sys.AppendLive(nil) {
			child, err := sys.Fork()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := child.Step(pid); err != nil {
				t.Fatal(err)
			}
			rec(child, d+1)
			child.Close()
		}
	}
	rec(root, 0)
}

// TestSymHash128MatchesKey pins the streamed symmetric fingerprint the walk
// claims to the symmetric byte key, an independent implementation of the
// same canonical form: over every configuration a symmetric walk claims on
// the forkable portfolio (the non-SymKeyer rows take the fallback) and on
// MP.QSC under reordering and lossy(1) delivery (the drop-budget fold),
// SymHash128 must equal the byte-stream fingerprint of AppendSymStateKey —
// the fingerprint the claim took before it stopped building the key, so
// tables, reports and cached results keep their values — and the ok flags
// must agree. The pairs (key, hash) must also form a bijection over
// everything observed. The byte key is built on a fresh scratch while the
// hash reuses one across the walk, so state leaking between hashes of one
// scratch shows as a mismatch. The exact pairs (AppendStateKey,
// StateHash128) of the same configurations join the same set, which keeps
// the fallback's hashes out of the exact space.
func TestSymHash128MatchesKey(t *testing.T) {
	type instance struct {
		name  string
		f     Factory
		depth int
	}
	var insts []instance
	for _, tc := range consensus.ForkablePortfolio() {
		insts = append(insts, instance{tc.Name, factoryFor(tc.Build, tc.Inputs), portfolioDepth(tc.Inputs)})
	}
	for _, d := range []sim.Delivery{{Mode: sim.DeliverReorder}, {Mode: sim.DeliverLossy, MaxDrops: 1}} {
		f := func() (*sim.System, error) {
			return consensus.QSCConfig(3, 2, 2).NewSystem([]int{2, 0, 1}, sim.WithDelivery(d))
		}
		insts = append(insts, instance{"qsc-" + d.Mode.String(), f, 8})
	}

	set := newKeyHashSet()
	var sym, fallback, dropped int
	for _, in := range insts {
		t.Run(in.name, func(t *testing.T) {
			symWalk(t, in.f, in.depth, func(sys *sim.System, fp machine.Hash128, ok bool) {
				key, kok := sys.AppendSymStateKey(nil, nil)
				exact, eok := sys.AppendStateKey(nil)
				efp, hok := sys.StateHash128()
				if ok != kok || eok != hok {
					t.Fatalf("ok flags disagree: SymHash128 %v AppendSymStateKey %v, StateHash128 %v AppendStateKey %v", ok, kok, hok, eok)
				}
				if !ok {
					return
				}
				if want := machine.NewByteHash128().Bytes(key).Sum(); fp != want {
					t.Fatalf("SymHash128 %x, byte-key fingerprint %x (key %q)", fp, want, key)
				}
				if err := set.record(key, fp); err != nil {
					t.Fatal(err)
				}
				if err := set.record(exact, efp); err != nil {
					t.Fatal(err)
				}
				switch {
				case key[0] == 'e':
					fallback++
				case sys.DropsUsed() > 0:
					dropped++
					sym++
				default:
					sym++
				}
			})
		})
	}
	t.Logf("%d symmetric (%d with drops), %d fallback configurations; %d distinct keys", sym, dropped, fallback, len(set.byKey))
	if sym < 1000 || fallback < 100 || dropped < 100 {
		t.Fatalf("too few configurations checked: %d symmetric, %d with drops, %d fallback", sym, dropped, fallback)
	}
}

// symKeyBenchConfigs are the mid-run configurations the symmetric-key
// benchmarks key: the symmetric verify instances' protocols (T1.7's
// increment racing counters at n=4, T1.9's two max-registers at n=3) with
// inputs 0..n-1, six round-robin steps in.
func symKeyBenchConfigs(b *testing.B) []symKeyBenchConfig {
	var out []symKeyBenchConfig
	for _, c := range []struct {
		name string
		p    *consensus.Protocol
	}{
		{"T1.7-n4", consensus.Increment(4)},
		{"T1.9-n3", consensus.MaxRegisters(3)},
	} {
		inputs := make([]int, c.p.N)
		for i := range inputs {
			inputs[i] = i
		}
		sys, err := c.p.NewSystem(inputs)
		if err != nil {
			b.Fatal(err)
		}
		rr := &sim.RoundRobin{}
		for k := 0; k < 6; k++ {
			if pid := rr.Next(sys); pid >= 0 {
				if _, err := sys.Step(pid); err != nil {
					b.Fatal(err)
				}
			}
		}
		out = append(out, symKeyBenchConfig{c.name, sys})
	}
	return out
}

type symKeyBenchConfig struct {
	name string
	sys  *sim.System
}

// BenchmarkSymHash128 times the symmetric claim's fingerprint: SymHash128
// on a warm scratch.
func BenchmarkSymHash128(b *testing.B) {
	for _, c := range symKeyBenchConfigs(b) {
		sys := c.sys
		b.Run(c.name, func(b *testing.B) {
			var sc sim.SymScratch
			for i := 0; i < b.N; i++ {
				if _, ok := sys.SymHash128(&sc); !ok {
					b.Fatal("no symmetric hash")
				}
			}
		})
	}
}

// BenchmarkSymHash128ByteKey is the byte-key baseline SymHash128 replaced
// in the claim: AppendSymStateKey into a reused buffer, then the key's
// byte-stream fingerprint.
func BenchmarkSymHash128ByteKey(b *testing.B) {
	for _, c := range symKeyBenchConfigs(b) {
		sys := c.sys
		b.Run(c.name, func(b *testing.B) {
			var sc sim.SymScratch
			var buf []byte
			var sink uint64
			for i := 0; i < b.N; i++ {
				key, ok := sys.AppendSymStateKey(buf[:0], &sc)
				if !ok {
					b.Fatal("no symmetric key")
				}
				buf = key
				sink ^= machine.NewByteHash128().Bytes(key).Sum().Lo
			}
			_ = sink
		})
	}
}
