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
// error, not a runtime rejection.
package repro

import (
	"errors"

	"repro/internal/core"
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
	// DistinctStates counts distinct configuration fingerprints reached
	// within the envelope (0 if the systems expose no state key; 0 under
	// TableBitstate). Every table mode counts fingerprints folded from
	// 64-bit per-location and per-process hashes, so two configurations
	// whose component hashes collide (~2^-64 per pair) count once.
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
	// TableBytes is the seen-state table's backing-store size. A table
	// shared by several workers grows each shard by that shard's own load,
	// so without WithTableBytes the figure depends on the worker count and
	// on how the fingerprints spread, and is comparable across runs only at
	// one worker.
	TableBytes int64
	// TableOccupancy is the fraction of the table in use.
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
