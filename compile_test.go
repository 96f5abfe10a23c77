package repro

// Tests for the compiled-handle API itself: input validation with
// ErrBadInput, the fork-amortized run path, the streaming sweep, and the
// verify-only options.

import (
	"context"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestCompileBadArguments(t *testing.T) {
	if _, err := Compile("T9.99", 3); !errors.Is(err, ErrUnknownRow) {
		t.Fatalf("unknown row: got %v", err)
	}
	for _, n := range []int{0, -2} {
		if _, err := Compile("T1.9", n); !errors.Is(err, ErrBadInput) {
			t.Fatalf("n=%d: want ErrBadInput, got %v", n, err)
		}
	}
	// Algorithm 1 (T1.5) is built for n >= 2 and QSC (MP.QSC) for n <= 63:
	// n outside a row's range is an input error, not a panic out of the
	// protocol constructor.
	for _, tc := range []struct {
		row string
		n   int
	}{{"T1.5", 1}, {"MP.QSC", 64}} {
		if _, err := Compile(tc.row, tc.n); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s n=%d: want ErrBadInput, got %v", tc.row, tc.n, err)
		}
	}
	// Every row compiles at the ends of its range.
	for _, r := range Hierarchy(defaultBufferCap) {
		for _, n := range []int{max(1, r.MinN), r.MaxN} {
			if n == 0 {
				continue
			}
			if _, err := Compile(r.ID, n); err != nil {
				t.Fatalf("%s at n=%d: %v", r.ID, n, err)
			}
		}
	}
	// A buffer capacity below one is rejected up front, on the l-buffer
	// rows (where it once divided by zero) and on every other row alike.
	for _, row := range []string{"T1.6", "T1.MA", "T1.9"} {
		for _, l := range []int{0, -1} {
			if _, err := Compile(row, 4, BufferCap(l)); !errors.Is(err, ErrBadInput) {
				t.Fatalf("%s BufferCap(%d): want ErrBadInput, got %v", row, l, err)
			}
		}
	}
}

// TestVerifyBadArguments: a negative bound is an input error, never a
// silent "unbounded" (a negative depth once explored like depth 0), and so
// is an unbounded depth on a row that is not wait-free.
func TestVerifyBadArguments(t *testing.T) {
	in := []int{0, 1, 2}
	cases := []struct {
		name  string
		row   string
		depth int
		opts  []VerifyOption
	}{
		{"negative depth", "T1.10", -1, nil},
		{"negative depth, not wait-free", "T1.9", -1, nil},
		{"unbounded depth, not wait-free", "T1.9", 0, nil},
		{"negative MaxRuns", "T1.10", 3, []VerifyOption{MaxRuns(-3)}},
		{"negative SoloBudget", "T1.10", 3, []VerifyOption{SoloBudget(-3)}},
		{"negative spill nodes", "T1.10", 3, []VerifyOption{WithSpillFrontier(-3, "")}},
		{"negative Workers", "T1.10", 3, []VerifyOption{Workers(-3)}},
		{"negative WithTableBytes", "T1.10", 3, []VerifyOption{WithTable(TableCompact), WithTableBytes(-3)}},
	}
	for _, tc := range cases {
		p, err := Compile(tc.row, len(in))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Verify(context.Background(), in, tc.depth, tc.opts...); !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: want ErrBadInput, got %v", tc.name, err)
		}
	}
}

// TestRunBadBudgets: a negative step budget or worker count on the solve
// verbs is an input error, not an exhausted budget.
func TestRunBadBudgets(t *testing.T) {
	ctx := context.Background()
	in := []int{0, 1, 2}
	p, err := Compile("T1.9", len(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(ctx, in, MaxSteps(-1)); !errors.Is(err, ErrBadInput) {
		t.Errorf("Solve MaxSteps(-1): want ErrBadInput, got %v", err)
	}
	for name, opts := range map[string][]BatchOption{
		"MaxSteps(-1)": {MaxSteps(-1)},
		"Workers(-1)":  {Workers(-1)},
	} {
		for _, r := range p.SolveBatch(ctx, []RunSpec{{Inputs: in, Seed: 1}, {Inputs: in, Seed: 2, MaxSteps: 1000}}, opts...) {
			if !errors.Is(r.Err, ErrBadInput) {
				t.Errorf("SolveBatch %s: want ErrBadInput, got %v", name, r.Err)
			}
		}
	}
	bad := []RunSpec{{Inputs: in, Seed: 1, MaxSteps: -1}}
	if r := p.SolveBatch(ctx, bad); !errors.Is(r[0].Err, ErrBadInput) {
		t.Errorf("SolveBatch spec MaxSteps -1: want ErrBadInput, got %v", r[0].Err)
	}
	for _, r := range p.SolveSeq(ctx, bad) {
		if !errors.Is(r.Err, ErrBadInput) {
			t.Errorf("SolveSeq spec MaxSteps -1: want ErrBadInput, got %v", r.Err)
		}
	}
}

func TestSolveBadInputs(t *testing.T) {
	p, err := Compile("T1.9", 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]int{
		"empty":        {},
		"wrong length": {0, 1},
		"too large":    {0, 1, 3},
		"negative":     {0, -1, 2},
	}
	for name, inputs := range cases {
		if _, err := p.Solve(context.Background(), inputs); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: want ErrBadInput, got %v", name, err)
		}
		if _, err := p.Verify(context.Background(), inputs, 4); !errors.Is(err, ErrBadInput) {
			t.Fatalf("verify %s: want ErrBadInput, got %v", name, err)
		}
		outs := p.SolveBatch(context.Background(), []RunSpec{{Inputs: inputs, Seed: 1}})
		if !errors.Is(outs[0].Err, ErrBadInput) {
			t.Fatalf("batch %s: want ErrBadInput, got %v", name, outs[0].Err)
		}
	}
}

// TestHandleAmortizesForkableRows: after one run on a natively forkable row
// the handle holds a pristine snapshot, and runs from the snapshot remain
// identical to fresh constructions. Rows without native forking skip the
// snapshot but stay correct.
func TestHandleAmortizesForkableRows(t *testing.T) {
	inputs := []int{1, 0, 2}
	forkable, err := Compile("T1.9", len(inputs)) // explicit steppers
	if err != nil {
		t.Fatal(err)
	}
	first, err := forkable.Solve(context.Background(), inputs, Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	forkable.mu.Lock()
	hasPristine := forkable.pristine[inputsKey(inputs)] != nil
	forkable.mu.Unlock()
	if !hasPristine {
		t.Fatal("forkable row did not cache a pristine snapshot")
	}
	second, err := forkable.Solve(context.Background(), inputs, Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	if *first != *second {
		t.Fatalf("fork-amortized run %+v != fresh run %+v", *second, *first)
	}

	// A second input vector gets its own cache slot — both stay live, so
	// alternating sweeps amortize instead of thrashing — and stays correct.
	other := []int{2, 2, 1}
	viaCache, err := forkable.Solve(context.Background(), other, Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	forkable.mu.Lock()
	bothCached := forkable.pristine[inputsKey(inputs)] != nil && forkable.pristine[inputsKey(other)] != nil
	forkable.mu.Unlock()
	if !bothCached {
		t.Fatal("snapshot cache evicted an earlier input vector")
	}
	fresh, err := Compile("T1.9", len(other))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Solve(context.Background(), other, Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	if *viaCache != *want {
		t.Fatalf("after input swap %+v != fresh handle %+v", *viaCache, *want)
	}

	// A handle whose protocol runs on the coroutine Body adapter (a Body
	// over T1.5's memory) cannot fork: no snapshot is cached, each run
	// builds a fresh system, and results are the same either way.
	body, err := compileBody("T1.5", len(inputs), followLeader)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := body.Solve(context.Background(), inputs, Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := body.Solve(context.Background(), inputs, Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	body.mu.Lock()
	bodyCached := len(body.pristine) != 0
	body.mu.Unlock()
	if bodyCached {
		t.Fatal("a Body-adapter handle cached a pristine snapshot")
	}
	if *b1 != *b2 {
		t.Fatalf("body-row runs diverged: %+v vs %+v", *b1, *b2)
	}
}

// followLeader is a small consensus Body over one {read, swap} location:
// process 0 swaps its input in and decides it, and every other process
// reads the location until the value appears and decides it.
func followLeader(p *sim.Proc) int {
	if p.ID() == 0 {
		p.Apply(0, machine.OpSwap, machine.Int(int64(p.Input()+1)))
		return p.Input()
	}
	for {
		if x, ok := machine.AsInt64(p.Apply(0, machine.OpRead)); ok && x != 0 {
			return int(x) - 1
		}
	}
}

// TestSolveSeqMatchesBatch: the streaming sweep yields exactly the batch
// results, in order, and stops early when the consumer breaks.
func TestSolveSeqMatchesBatch(t *testing.T) {
	inputs := []int{2, 0, 1}
	p, err := Compile("T1.10", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]RunSpec, 10)
	for i := range specs {
		specs[i] = RunSpec{Inputs: inputs, Seed: int64(i + 1)}
	}
	batch := p.SolveBatch(context.Background(), specs)
	var n int
	for i, r := range p.SolveSeq(context.Background(), specs) {
		if r.Err != nil {
			t.Fatalf("seq %d: %v", i, r.Err)
		}
		if !reflect.DeepEqual(r.Outcome, batch[i].Outcome) {
			t.Fatalf("seq %d: %+v != batch %+v", i, *r.Outcome, *batch[i].Outcome)
		}
		n++
		if i == 4 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("consumer break: stream ran %d elements, want 5", n)
	}
}

// TestVerifyMaxRuns: the run cap truncates the exploration and reports it.
func TestVerifyMaxRuns(t *testing.T) {
	inputs := []int{0, 1, 2}
	p, err := Compile("T1.10", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Verify(context.Background(), inputs, 6)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := p.Verify(context.Background(), inputs, 6, MaxRuns(2))
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated {
		t.Fatal("run cap did not mark the report truncated")
	}
	if capped.Runs > 2 || capped.Runs == 0 {
		t.Fatalf("capped runs = %d, want 1..2", capped.Runs)
	}
	if full.Truncated {
		t.Fatal("uncapped exploration reported truncation")
	}
}

// TestVerifySoloBudget: the obstruction-freedom probe runs through the
// handle — the wait-free CAS row decides within any reasonable solo budget
// at every reachable configuration.
func TestVerifySoloBudget(t *testing.T) {
	inputs := []int{0, 1}
	p, err := Compile("T1.10", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := p.Verify(context.Background(), inputs, 0, SoloBudget(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(ok.Violations) != 0 {
		t.Fatalf("generous solo budget flagged: %v", ok.Violations)
	}
}

// TestVerifySoloBudgetRefusesChannels: a solo probe has no meaning on a
// message-passing row (a process alone cannot move its own messages), and
// the probe once indexed a delivery pid as a process and panicked.
func TestVerifySoloBudgetRefusesChannels(t *testing.T) {
	p, err := Compile("MP.QSC", 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Verify(context.Background(), []int{0, 1}, 5, SoloBudget(200))
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("Verify with SoloBudget on MP.QSC = %+v, %v; want ErrBadInput", rep, err)
	}
	// Without solo probes the same envelope verifies.
	if _, err := p.Verify(context.Background(), []int{0, 1}, 5); err != nil {
		t.Fatal(err)
	}
}

// TestHandleAccessors covers the metadata verbs.
func TestHandleAccessors(t *testing.T) {
	p, err := Compile("T1.6", 7, BufferCap(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != "T1.6" || p.N() != 7 {
		t.Fatalf("ID/N = %s/%d", p.ID(), p.N())
	}
	if p.Row().ID != "T1.6" {
		t.Fatalf("Row().ID = %s", p.Row().ID)
	}
	lo, up := p.Bounds()
	if lo != 3 || up != 4 {
		t.Fatalf("bounds (%d,%d), want (3,4)", lo, up)
	}
}

// stripVerifyMem clears the diagnostic fields of a VerifyReport for
// identity comparisons: Mem is strategy-shaped by contract, and the
// under-approximation certificate is only set by compacted tables.
func stripVerifyMem(r *VerifyReport) *VerifyReport {
	c := *r
	c.Mem = VerifyMemStats{}
	c.UnderApprox = false
	c.FalseMergeProb = 0
	return &c
}

// TestVerifyTableModes: the compacted table modes reproduce the exact
// exploration through the public API (at these state counts a fingerprint
// collision is implausible), fill the memory telemetry, and certify their
// under-approximation; bitstate under-approximates with uncountable
// distinct states but identical counters at negligible occupancy.
func TestVerifyTableModes(t *testing.T) {
	inputs := []int{0, 1, 1}
	p, err := Compile("T1.7", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	exact, err := p.Verify(ctx, inputs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if exact.UnderApprox || exact.FalseMergeProb != 0 {
		t.Fatalf("exact run claims under-approximation: %+v", exact)
	}
	for _, mode := range []TableMode{TableCompact, TableCompact128} {
		rep, err := p.Verify(ctx, inputs, 8, WithTable(mode))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripVerifyMem(rep), stripVerifyMem(exact)) {
			t.Fatalf("%v diverged from exact:\nexact   %+v\ncompact %+v", mode, exact, rep)
		}
		if !rep.UnderApprox || rep.FalseMergeProb <= 0 || rep.FalseMergeProb >= 1 {
			t.Fatalf("%v: pruning compacted run must bound its risk: %+v", mode, rep)
		}
		if rep.Mem.TableBytes <= 0 || rep.Mem.TableOccupancy <= 0 {
			t.Fatalf("%v: missing table telemetry: %+v", mode, rep.Mem)
		}
	}
	bit, err := p.Verify(ctx, inputs, 8, WithTable(TableBitstate), WithTableBytes(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if bit.DistinctStates != 0 {
		t.Fatalf("bitstate counted %d distinct states", bit.DistinctStates)
	}
	if !bit.UnderApprox || bit.FalseMergeProb <= 0 {
		t.Fatalf("bitstate run must report under-approximation: %+v", bit)
	}
	if bit.Mem.TableBytes != 1<<20 {
		t.Fatalf("bitstate table bytes = %d, want the 1 MiB cap", bit.Mem.TableBytes)
	}
}

// TestVerifySpillFrontier: a spilled exploration returns the byte-identical
// report (telemetry aside), bounds the resident frontier, and leaves no
// files behind — sequentially and, with per-worker spill files, under the
// parallel explorer at several worker counts.
func TestVerifySpillFrontier(t *testing.T) {
	inputs := []int{0, 1, 1}
	p, err := Compile("T1.7", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{0, 1, 2, 4} {
		opts := []VerifyOption{}
		if workers > 0 {
			opts = append(opts, Workers(workers))
		}
		plain, err := p.Verify(ctx, inputs, 8, opts...)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		spilled, err := p.Verify(ctx, inputs, 8, append(opts, WithSpillFrontier(8, dir))...)
		if err != nil {
			t.Fatal(err)
		}
		if spilled.Mem.SpilledBatches == 0 {
			t.Fatalf("workers=%d: frontier never spilled", workers)
		}
		if !reflect.DeepEqual(stripVerifyMem(spilled), stripVerifyMem(plain)) {
			t.Fatalf("workers=%d: spilling changed the report:\nplain   %+v\nspilled %+v", workers, plain, spilled)
		}
		// The resident bound is per worker: the spill bound plus at most one
		// expansion's children (one child per process).
		if limit := int64(8 + len(inputs)); spilled.Mem.PeakResident > limit {
			t.Fatalf("workers=%d: resident frontier peaked at %d, bound %d",
				workers, spilled.Mem.PeakResident, limit)
		}
		left, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("workers=%d: spill files not removed: %v", workers, left)
		}
	}
}

// TestVerifySharedTableStartsSmall: a slot table without an explicit
// budget starts small and grows with the exploration at every worker
// count. A shared table used to allocate its whole default budget up front
// (64 MiB under compact) for a 165-state envelope.
func TestVerifySharedTableStartsSmall(t *testing.T) {
	inputs := []int{2, 0, 1}
	p, err := Compile("T1.9", len(inputs))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []TableMode{TableExact, TableCompact, TableCompact128} {
		for _, w := range []int{2, 4} {
			rep, err := p.Verify(context.Background(), inputs, 6, WithTable(mode), Workers(w))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mem.TableBytes <= 0 || rep.Mem.TableBytes >= 64<<10 {
				t.Fatalf("%v workers=%d: table holds %d bytes for %d distinct states, want under 64 KiB",
					mode, w, rep.Mem.TableBytes, rep.DistinctStates)
			}
		}
	}
}

// TestVerifyBadTableBytes: a negative table budget is an input error,
// reported before any exploration and unwrapping as ErrBadInput.
func TestVerifyBadTableBytes(t *testing.T) {
	p, err := Compile("T1.7", 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Verify(context.Background(), []int{0, 1}, 4,
		WithTable(TableCompact), WithTableBytes(-1))
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("WithTableBytes(-1): want ErrBadInput, got %v", err)
	}
	// The error is about the option, not the inputs, so it must surface
	// even on an otherwise-invalid call ordering and with TableExact.
	if _, err := p.Verify(context.Background(), []int{0, 1}, 4, WithTableBytes(-5)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("WithTableBytes(-5) under TableExact: want ErrBadInput, got %v", err)
	}
}

// TestParseTableMode pins the flag spellings and their round trip.
func TestParseTableMode(t *testing.T) {
	for _, m := range []TableMode{TableExact, TableCompact, TableCompact128, TableBitstate} {
		got, err := ParseTableMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %v: got %v, %v", m, got, err)
		}
	}
	if _, err := ParseTableMode("hashcompact"); !errors.Is(err, ErrBadInput) {
		t.Fatalf("unknown spelling: want ErrBadInput, got %v", err)
	}
	p, err := Compile("T1.7", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Verify(context.Background(), []int{0, 1}, 4, WithTable(TableMode(99))); !errors.Is(err, ErrBadInput) {
		t.Fatalf("invalid mode: want ErrBadInput, got %v", err)
	}
}
