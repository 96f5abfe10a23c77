// Package repro is the public face of a from-scratch reproduction of
// "A Complexity-Based Hierarchy for Multiprocessor Synchronization"
// (Ellen, Gelashvili, Shavit, Zhu — PODC 2016). It classifies instruction
// sets by SP(I, n): the number of uniform memory locations needed to solve
// obstruction-free n-valued consensus among n processes.
//
// The library simulates the paper's machine model — identical memory
// locations all supporting one instruction set, adversarial scheduling,
// crash failures — and implements every upper-bound protocol and every
// executable lower-bound construction from the paper. The unit of work is a
// compiled protocol handle: Compile resolves a Table 1 row for a fixed n
// once, and the handle's verbs run it under one schedule (Solve), sweep
// many schedules in parallel (SolveBatch) or as a lazy stream (SolveSeq),
// exhaustively model-check a schedule envelope (Verify), and measure step
// complexity (Steps) and the paper's space bounds (Bounds). Repeated runs
// fork a pristine snapshot of the initial configuration instead of
// rebuilding the system, and every long-running verb takes a
// context.Context for cancellation and deadlines. See DESIGN.md for the
// full inventory and EXPERIMENTS.md for the reproduced Table 1 and engine
// benchmarks.
//
// Quick start:
//
//	p, err := repro.Compile("T1.9", 5) // two max-registers, five processes
//	if err != nil { ... }
//	out, err := p.Solve(ctx, []int{3, 1, 4, 1, 2}, repro.Seed(7))
//	// out.Value is the agreed value; out.Footprint is 2 — two max-registers.
//
// Options are typed per operation: a schedule Seed applies to Solve, a
// worker-pool size to Verify and SolveBatch, a step budget to both run
// verbs. Passing an option to a verb it does not configure is a compile
// error, not a runtime rejection. The pre-handle free functions (Solve,
// SolveBatch, Verify, Steps, SpaceBounds) remain as deprecated wrappers
// over handles, pinned result-identical to them by a differential test
// battery; the one deliberate behavior change is that they now inherit the
// handles' up-front input validation, so misuse that previously failed
// deep inside protocol construction (out-of-range inputs, empty input
// vectors, n < 1) reports the ErrBadInput sentinel instead.
package repro

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// ErrUnknownRow reports an experiment id not present in Table 1.
var ErrUnknownRow = errors.New("repro: unknown hierarchy row")

// ErrNoDecision reports that a run exhausted its step budget before any
// process decided. Random schedules are fair, so for the paper's
// obstruction-free protocols this indicates a budget far too small rather
// than livelock; callers distinguish it from safety violations with
// errors.Is.
var ErrNoDecision = errors.New("repro: no process decided within the step budget")

// Row re-exports the hierarchy row descriptor.
type Row = core.Row

// Unbounded marks infinite space bounds (Table 1's first row).
const Unbounded = core.Unbounded

// Hierarchy returns the paper's Table 1 with buffer capacity l for the
// l-buffer rows.
func Hierarchy(l int) []Row { return core.Table(l) }

// Outcome is the result of one consensus run.
type Outcome struct {
	// Value is the agreed decision.
	Value int
	// Footprint is the number of distinct memory locations used.
	Footprint int
	// Steps is the number of atomic shared-memory steps taken.
	Steps int64
	// MaxBits is the widest value any location held.
	MaxBits int
}

// VerifyReport summarizes an exhaustive safety exploration.
type VerifyReport struct {
	// Runs is the number of maximal schedules examined.
	Runs int64
	// States is the number of configurations expanded (deduplication makes
	// this close to the number of distinct canonical states).
	States int64
	// Deduped counts configurations pruned by the canonical-state table.
	Deduped int64
	// Truncated reports whether MaxRuns stopped the search early.
	Truncated bool
	// Violations describes any safety violations found (empty = safe over
	// the explored envelope).
	Violations []string
	// DecidedValues is the sorted set of values decided somewhere in the
	// explored envelope; invariant across worker counts and deduplication.
	DecidedValues []int
	// DistinctStates counts distinct canonical configurations reached
	// within the envelope (0 if the systems expose no state key). Under the
	// compacted table modes with deduplication off (dedup is always on for
	// Verify, but see the explorer's count-only mode) the count keys on
	// 64-bit hashes and is fingerprint-approximate; only a deduplicating
	// TableExact run counts exactly.
	DistinctStates int64
	// UnderApprox reports that the exploration ran with a compacted
	// seen-state table (WithTable) and pruned at least one revisit, so the
	// envelope may under-cover the true state space: distinct states whose
	// fingerprints collided merge falsely. Compaction only ever shrinks the
	// envelope — violations and decided values it does report are real.
	UnderApprox bool
	// FalseMergeProb bounds the probability that at least one false merge
	// occurred, given the table mode's fingerprint width and the number of
	// states stored. Nonzero exactly when UnderApprox is set.
	FalseMergeProb float64
	// Mem is the exploration's memory telemetry. It is diagnostic: unlike
	// every field above, it may vary across worker counts and spill bounds
	// for one same verdict.
	Mem VerifyMemStats
}

// VerifyMemStats is VerifyReport's memory telemetry.
type VerifyMemStats struct {
	// TableBytes is the seen-state table's backing-store size — exact for
	// the compacted modes, an estimate of key storage for TableExact.
	TableBytes int64
	// TableOccupancy is the fraction of the table in use (compacted modes
	// only).
	TableOccupancy float64
	// PeakFrontier is the largest number of pending configurations the
	// exploration held at once, spilled batches included.
	PeakFrontier int64
	// PeakResident is the largest number of configurations resident in
	// memory at once: the largest single worker frontier. WithSpillFrontier
	// bounds it to about the spill bound (per worker); without spilling it
	// tracks PeakFrontier.
	PeakResident int64
	// SpilledBatches counts frontier batches written to disk
	// (WithSpillFrontier), summed across workers.
	SpilledBatches int64
}

// StepProfile re-exports the step-complexity measurement (the extra axis
// the paper's conclusion calls for).
type StepProfile = core.StepProfile

// options is the legacy shared options bag of the deprecated free
// functions. The compiled-handle API replaces it with per-operation typed
// options (see options.go); it survives only so the deprecated wrappers
// keep their historical behavior — in particular the runtime rejection of
// options on verbs they never applied to (modulo the ErrBadInput
// validation noted in the package doc).
type options struct {
	seed        int64
	l           int
	maxSteps    int64
	workers     int
	seedSet     bool
	maxStepsSet bool
	workersSet  bool
}

// Option configures the deprecated free functions.
//
// Deprecated: use the per-operation typed options of the compiled-handle
// API (Seed, BufferCap, MaxSteps, Workers, ...), which make per-verb
// applicability a compile-time property.
type Option func(*options)

// WithSeed selects the (reproducible) random schedule. Default 1.
//
// Deprecated: use Compile and Protocol.Solve with Seed.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed, o.seedSet = seed, true }
}

// WithBufferCap sets l for the l-buffer rows. Default 2.
//
// Deprecated: use Compile with BufferCap.
func WithBufferCap(l int) Option { return func(o *options) { o.l = l } }

// WithMaxSteps bounds the run. Default 50 million.
//
// Deprecated: use Compile and Protocol.Solve with MaxSteps.
func WithMaxSteps(s int64) Option {
	return func(o *options) { o.maxSteps, o.maxStepsSet = s, true }
}

// WithWorkers spreads Verify's exhaustive exploration across a worker pool
// (0 = GOMAXPROCS). Worker count changes wall-clock time, never the
// accounting. Verify-only; Solve runs one schedule and has nothing to
// parallelize.
//
// Deprecated: use Compile and Protocol.Verify with Workers.
func WithWorkers(w int) Option {
	return func(o *options) { o.workers, o.workersSet = w, true }
}

// Solve runs the upper-bound protocol of the given Table 1 row (for
// example "T1.9" for two max-registers) on the given inputs — one input per
// process, values in [0, n) — under a fair random schedule, and returns the
// agreed value with space and step measurements.
//
// Deprecated: use Compile and Protocol.Solve, which resolve the row once,
// amortize system construction across runs, and accept a context.
func Solve(rowID string, inputs []int, opts ...Option) (*Outcome, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	if o.workersSet {
		return nil, errors.New("repro: WithWorkers applies to Verify; Solve runs a single schedule")
	}
	p, err := Compile(rowID, len(inputs), BufferCap(o.l))
	if err != nil {
		return nil, err
	}
	return p.Solve(context.Background(), inputs, Seed(o.seed), MaxSteps(o.maxSteps))
}

// BatchSpec describes one Solve configuration in a batch: a Table 1 row, the
// process inputs, and the schedule seed. Seed is used verbatim, so a batch
// run equals Solve(..., WithSeed(Seed)) exactly; zero values of L and
// MaxSteps take Solve's defaults (l=2, 50 million steps).
type BatchSpec struct {
	Row      string
	Inputs   []int
	Seed     int64
	L        int
	MaxSteps int64
}

// BatchOutcome pairs a spec with its result. Exactly one of Outcome and Err
// is set.
type BatchOutcome struct {
	Spec    BatchSpec
	Outcome *Outcome
	Err     error
}

// SolveBatch runs many independent consensus configurations in parallel
// across workers OS threads (workers <= 0 uses all of GOMAXPROCS) and
// returns one outcome per spec, in order. Each run gets its own memory,
// processes, and scheduler, so results are bit-identical to running the
// specs one at a time through Solve — parallelism changes wall-clock time,
// never outcomes.
//
// Deprecated: use Compile and Protocol.SolveBatch (one row swept over
// RunSpecs, fork-amortized, cancellable) — or several handles for
// mixed-row sweeps.
func SolveBatch(specs []BatchSpec, workers int) []BatchOutcome {
	// Specs may mix rows, capacities, and process counts: compile one
	// handle per distinct (row, l, n) so same-configuration specs still
	// share a pristine snapshot.
	type hkey struct {
		row string
		l   int
		n   int
	}
	handles := make(map[hkey]*Protocol)
	herrs := make(map[hkey]error)
	out := make([]BatchOutcome, len(specs))
	stats := make([]machine.Stats, len(specs))
	var jobs []sim.BatchJob
	var jobSpec []int // job index -> specs index
	for i, sp := range specs {
		o := defaultOptions()
		o.seed = sp.Seed
		if sp.L != 0 {
			o.l = sp.L
		}
		if sp.MaxSteps != 0 {
			o.maxSteps = sp.MaxSteps
		}
		out[i].Spec = sp
		k := hkey{sp.Row, o.l, len(sp.Inputs)}
		if _, seen := handles[k]; !seen {
			handles[k], herrs[k] = Compile(sp.Row, len(sp.Inputs), BufferCap(o.l))
		}
		if err := herrs[k]; err != nil {
			out[i].Err = err
			continue
		}
		i, sp, o, p := i, sp, o, handles[k]
		jobs = append(jobs, sim.BatchJob{
			Make: func() (*sim.System, error) {
				return p.makeRun(sp.Inputs)
			},
			Sched: func() sim.Scheduler { return sim.NewRandom(o.seed) },
			// Snapshot the measurements before the runner closes (and the
			// handle's pool recycles) the run's System.
			Done:     func(sys *sim.System) { stats[i] = sys.Mem().Stats() },
			MaxSteps: o.maxSteps,
		})
		jobSpec = append(jobSpec, i)
	}
	results, _ := sim.RunBatch(context.Background(), jobs, workers)
	for j, r := range results {
		i := jobSpec[j]
		if r.Err != nil {
			out[i].Err = r.Err
			continue
		}
		out[i].Outcome, out[i].Err = finishSolve(specs[i].Inputs, jobs[j].MaxSteps, r.Result, stats[i])
	}
	return out
}

// SpaceBounds evaluates the paper's lower and upper bound on SP(I, n) for a
// row at the given n (Unbounded = ∞).
//
// Deprecated: use Compile and Protocol.Bounds.
func SpaceBounds(rowID string, n, l int) (lower, upper int, err error) {
	p, err := Compile(rowID, n, BufferCap(l))
	if err != nil {
		return 0, 0, err
	}
	lower, upper = p.Bounds()
	return lower, upper, nil
}

// Verify exhaustively model-checks the row's protocol on the given inputs
// over every interleaving up to maxDepth scheduler steps (0 = until all
// processes decide; only safe for wait-free rows). WithWorkers spreads the
// exploration across a pool of workers.
//
// Deprecated: use Compile and Protocol.Verify, which add cancellation,
// MaxRuns, and SoloBudget.
func Verify(rowID string, inputs []int, maxDepth int, opts ...Option) (*VerifyReport, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	if o.seedSet || o.maxStepsSet {
		return nil, errors.New("repro: Verify explores every schedule up to maxDepth; WithSeed/WithMaxSteps do not apply")
	}
	p, err := Compile(rowID, len(inputs), BufferCap(o.l))
	if err != nil {
		return nil, err
	}
	var vopts []VerifyOption
	if o.workersSet {
		vopts = append(vopts, Workers(o.workers))
	}
	return p.Verify(context.Background(), inputs, maxDepth, vopts...)
}

// Steps profiles a row's solo and contended step complexity at the given n.
//
// Deprecated: use Compile and Protocol.Steps.
func Steps(rowID string, n, l int) (*StepProfile, error) {
	p, err := Compile(rowID, n, BufferCap(l))
	if err != nil {
		return nil, err
	}
	return p.Steps(context.Background())
}
