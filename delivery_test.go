package repro

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// TestQSCResilienceSweep is the f-resilience row beyond Table 1: the MP.QSC
// quorum protocol at n=3, t=2 verified exhaustively at f=0 (honest run
// decides), f=1 (one silent process — the tolerated bound — still decides),
// and f=2 (past the bound — no quorum can form, so nothing decides, but
// safety holds over the whole envelope).
func TestQSCResilienceSweep(t *testing.T) {
	cases := []struct {
		name        string
		copts       []CompileOption
		inputs      []int
		depth       int
		wantDecided []int
	}{
		// Depth 16 is the shallowest envelope containing a full two-phase
		// decision for three processes; with one process silent every
		// broadcast still pays its full n-1 sends, so the two-party
		// decision completes at depth 32.
		{"f0", nil, []int{1, 0, 1}, 16, []int{1}},
		{"f1-crash-f", []CompileOption{WithScenario("crash-f")}, []int{2, 0, 1}, 32, []int{0}},
		{"f2-crash-beyond-f", []CompileOption{WithScenario("crash-beyond-f")}, []int{2, 0, 1}, 32, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile("MP.QSC", 3, tc.copts...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.Verify(context.Background(), tc.inputs, tc.depth, Workers(0), WithSymmetry())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("safety violated: %v", rep.Violations)
			}
			if !slices.Equal(rep.DecidedValues, tc.wantDecided) {
				t.Fatalf("decided values %v, want %v", rep.DecidedValues, tc.wantDecided)
			}
		})
	}
}

// TestQSCDecidedValuesInvariantUnderDelivery pins the acceptance criterion:
// the QSC row's decided-value set at a fixed depth is invariant under the
// delivery adversary — FIFO order, free reordering, and reordering plus an
// adversarial drop all decide exactly the same values, violation-free.
func TestQSCDecidedValuesInvariantUnderDelivery(t *testing.T) {
	inputs := []int{1, 0, 1}
	const depth = 16
	verify := func(t *testing.T, mode DeliveryMode, drops int) *VerifyReport {
		t.Helper()
		p, err := Compile("MP.QSC", 3, WithDelivery(mode, drops))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Verify(context.Background(), inputs, depth, Workers(0), WithSymmetry())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("%s: safety violated: %v", mode, rep.Violations)
		}
		return rep
	}
	base := verify(t, DeliveryOrdered, 0)
	if len(base.DecidedValues) == 0 {
		t.Fatal("ordered exploration reached no decision; the invariance check would be vacuous")
	}
	for _, adv := range []struct {
		mode  DeliveryMode
		drops int
	}{{DeliveryReorder, 0}, {DeliveryLossy, 1}} {
		rep := verify(t, adv.mode, adv.drops)
		if !slices.Equal(rep.DecidedValues, base.DecidedValues) {
			t.Fatalf("%s: decided values %v, ordered decided %v",
				adv.mode, rep.DecidedValues, base.DecidedValues)
		}
		// The stronger adversary explores strictly more interleavings.
		if rep.DistinctStates < base.DistinctStates {
			t.Fatalf("%s: %d distinct states, fewer than ordered's %d",
				adv.mode, rep.DistinctStates, base.DistinctStates)
		}
	}
}

// TestScenarioPortfolioVerify compiles every portfolio scenario through the
// public WithScenario surface and verifies it at its declared depth: the
// planted Byzantine attacks must be found, every honest scenario must
// verify safe.
func TestScenarioPortfolioVerify(t *testing.T) {
	scens := Scenarios()
	if len(scens) == 0 {
		t.Fatal("empty scenario portfolio")
	}
	for _, info := range scens {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			p, err := Compile("MP.QSC", len(info.Inputs), WithScenario(info.Name))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.Verify(context.Background(), info.Inputs, info.Depth, Workers(0))
			if err != nil {
				t.Fatal(err)
			}
			if info.WantViolation && len(rep.Violations) == 0 {
				t.Fatalf("planted violation not found within depth %d", info.Depth)
			}
			if !info.WantViolation && len(rep.Violations) > 0 {
				t.Fatalf("unexpected violation: %v", rep.Violations[0])
			}
		})
	}
}

// TestScenarioPortfolioWorkerInvariant: over every portfolio scenario under
// each delivery adversary, the whole VerifyReport — violation witnesses
// included — is the same at every worker count, Mem aside.
func TestScenarioPortfolioWorkerInvariant(t *testing.T) {
	for _, info := range Scenarios() {
		for _, adv := range []struct {
			mode  DeliveryMode
			drops int
		}{{DeliveryOrdered, 0}, {DeliveryReorder, 0}, {DeliveryLossy, 1}} {
			t.Run(info.Name+"/"+adv.mode.String(), func(t *testing.T) {
				p, err := Compile("MP.QSC", len(info.Inputs), WithScenario(info.Name), WithDelivery(adv.mode, adv.drops))
				if err != nil {
					t.Fatal(err)
				}
				want, err := p.Verify(context.Background(), info.Inputs, info.Depth)
				if err != nil {
					t.Fatal(err)
				}
				want.Mem = VerifyMemStats{}
				for _, w := range []int{1, 2, 4, 8} {
					got, err := p.Verify(context.Background(), info.Inputs, info.Depth, Workers(w))
					if err != nil {
						t.Fatal(err)
					}
					got.Mem = VerifyMemStats{}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("workers=%d: report depends on the worker count:\nunset %+v\nthis  %+v", w, want, got)
					}
				}
			})
		}
	}
}

// TestByzantineScenarioAcrossDeliveryModes re-pins the acceptance criterion
// at the public surface: the planted equivocation violation is reachable
// under every delivery adversary (an explicit WithDelivery overrides the
// scenario's default model).
func TestByzantineScenarioAcrossDeliveryModes(t *testing.T) {
	for _, adv := range []struct {
		mode  DeliveryMode
		drops int
	}{{DeliveryOrdered, 0}, {DeliveryReorder, 0}, {DeliveryLossy, 1}} {
		p, err := Compile("MP.QSC", 3, WithScenario("byz-fork"), WithDelivery(adv.mode, adv.drops))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Verify(context.Background(), []int{0, 1, 0}, 5, Workers(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) == 0 {
			t.Fatalf("%s: planted byz-fork violation not found", adv.mode)
		}
	}
}

// TestVerifyProgress checks the WithProgress liveness callback on both the
// sequential and the parallel explorer: it fires at least once on a
// non-trivial exploration, carries a monotonically plausible state count,
// and leaves the report untouched.
func TestVerifyProgress(t *testing.T) {
	for _, workers := range []int{-1, 4} { // -1: sequential (no Workers option)
		var calls, last atomic.Int64
		opts := []VerifyOption{WithSymmetry(), WithProgress(func(states int64) {
			calls.Add(1)
			last.Store(states)
		})}
		if workers >= 0 {
			opts = append(opts, Workers(workers))
		}
		p, err := Compile("MP.QSC", 3, WithDelivery(DeliveryReorder, 0))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Verify(context.Background(), []int{1, 0, 1}, 16, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() == 0 {
			t.Fatalf("workers=%d: progress callback never fired over %d states", workers, rep.States)
		}
		if got := last.Load(); got < 4096 || got > rep.States {
			t.Fatalf("workers=%d: last progress count %d outside (0, %d]", workers, got, rep.States)
		}
	}
}

// TestDeliveryOptionValidation pins the compile-time rejection of every
// malformed delivery/scenario request as ErrBadInput.
func TestDeliveryOptionValidation(t *testing.T) {
	cases := []struct {
		name  string
		row   string
		n     int
		copts []CompileOption
	}{
		{"delivery-on-shared-memory-row", "T1.9", 3, []CompileOption{WithDelivery(DeliveryOrdered, 0)}},
		{"invalid-mode", "MP.QSC", 3, []CompileOption{WithDelivery(DeliveryMode(99), 0)}},
		{"drops-without-lossy", "MP.QSC", 3, []CompileOption{WithDelivery(DeliveryReorder, 1)}},
		{"negative-drops", "MP.QSC", 3, []CompileOption{WithDelivery(DeliveryLossy, -1)}},
		{"unknown-scenario", "MP.QSC", 3, []CompileOption{WithScenario("no-such")}},
		{"scenario-on-shared-memory-row", "T1.9", 3, []CompileOption{WithScenario("baseline")}},
		{"scenario-wrong-n", "MP.QSC", 2, []CompileOption{WithScenario("baseline")}},
		{"scenario-with-values", "MP.QSC", 3, []CompileOption{WithScenario("baseline"), WithValues(2)}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Compile(tc.row, tc.n, tc.copts...); !errors.Is(err, ErrBadInput) {
				t.Fatalf("got %v, want ErrBadInput", err)
			}
		})
	}
}

// TestParseDeliveryMode pins the flag spellings and their round-trip.
func TestParseDeliveryMode(t *testing.T) {
	for _, m := range []DeliveryMode{DeliveryOrdered, DeliveryReorder, DeliveryLossy} {
		got, err := ParseDeliveryMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round-trip %s: got %v, %v", m, got, err)
		}
	}
	if _, err := ParseDeliveryMode("fifo"); !errors.Is(err, ErrBadInput) {
		t.Fatalf("unknown spelling: got %v, want ErrBadInput", err)
	}
	if DeliveryMode(99).String() != "invalid" {
		t.Fatal("out-of-range mode must stringify as invalid")
	}
}
