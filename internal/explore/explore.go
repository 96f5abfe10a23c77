// Package explore systematically enumerates process interleavings of a
// deterministic protocol, checking consensus safety over every schedule up
// to a bound. Configurations are first-class, so the explorer forks at
// branch points instead of re-executing the whole schedule prefix from a
// fresh system. Every Table 1 row runs as explicit forkable steppers (see
// internal/consensus/steppers.go), which System.Fork copies in O(state).
// A system that cannot fork — one on the coroutine Body adapter, such as the
// sticky tracks, BufferedHeterogeneous, examples/ledger and SetBody
// variants, or one over external steppers without sim.Forker — is refused
// with sim.ErrNotForkable before any walk starts.
//
// There is one walk (walk.go): a depth-first search over a work-stealing
// frontier, run on the calling goroutine for one worker and across a pool
// for more. A seen-state table keyed on the canonical configuration —
// incremental memory fingerprint, per-process local-state keys, decisions —
// optionally deduplicates the search under one claim rule, exact
// (state, depth) pairs: most interleavings of commuting steps converge to
// identical configurations, and each reachable pair is expanded exactly
// once whichever path or worker reaches it first. Every Report field but
// Mem is therefore independent of the worker count.
//
// The package also provides the bounded CanDecide/Bivalent oracles that the
// paper's valency arguments (Lemmas 6.4-6.7, 9.1) are phrased in terms of.
package explore

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/sim"
)

// Factory builds a fresh system in its initial configuration. Systems are
// closed by the explorer after use.
type Factory func() (*sim.System, error)

// Strategy is kept so existing callers compile; the explorer ignores it.
// Every exploration forks configurations at branch points, and
// Options.Workers alone selects the worker count.
type Strategy int

// StrategyFork names the one exploration strategy: fork the parent
// configuration at every branch point.
const StrategyFork Strategy = 0

// Options bounds an exploration.
type Options struct {
	// MaxDepth bounds schedule length; 0 means unlimited (use only with
	// terminating protocols).
	MaxDepth int
	// MaxRuns caps the number of maximal schedules examined; 0 means
	// unlimited.
	MaxRuns int64
	// SoloBudget, when positive, additionally checks obstruction-freedom at
	// every explored configuration: each live process, run alone, must
	// decide within SoloBudget steps. This multiplies the cost by roughly
	// n×SoloBudget per configuration. A system with channels is refused
	// with ErrSoloOnChannels.
	SoloBudget int64
	// Strategy is ignored (see Strategy).
	Strategy Strategy
	// Dedup enables the seen-state table: a configuration whose canonical
	// state key (memory fingerprint, per-process local state, decisions)
	// was already claimed at the same depth is pruned. The claimed twin has
	// the same future and the same remaining depth, so its subtree covers
	// the pruned one and pruning is sound for safety violations. It changes
	// the Runs/States accounting, not the verdict or DecidedValues.
	// Configurations that expose no state key (external steppers without
	// sim.StateKeyer) are never pruned.
	Dedup bool
	// Symmetry keys the seen-state table (and the DistinctStates count) on
	// the symmetry-reduced canonical state key instead of the exact one:
	// configurations equal up to a permutation of the uniform memory
	// locations — and up to a permutation of the process vector when every
	// live stepper has a symmetric key (sim.StateKeyer) — merge to one
	// table entry. Safety verdicts and the decided-value set are unchanged
	// (the retained orbit representative's subtree covers the pruned twin's
	// up to the symmetry); Runs/States/Deduped shrink and DistinctStates
	// counts orbits rather than exact states. Systems with live steppers
	// without a symmetric key transparently fall back to the exact key, so
	// the option is sound for every protocol.
	Symmetry bool
	// Workers is the number of goroutines the walk spreads across; <= 1
	// runs it on the calling goroutine. A MaxRuns cap forces one worker,
	// because "the first k maximal schedules" is a depth-first-order
	// notion. Worker count changes wall-clock time, never the Report (Mem
	// aside): the set of claimed (state, depth) pairs does not depend on
	// which worker claims first, and a several-worker run with Dedup stops
	// at its first violation and re-runs on one worker so that each
	// violation carries the schedule the depth-first order assigns it.
	Workers int
	// Table selects the seen-state storage. Every mode keys a
	// configuration by one 128-bit fingerprint built from 64-bit component
	// hashes. The counting modes share one slot table: the default
	// TableExact stores every fingerprint without a cap and never sets
	// UnderApprox; TableCompact and TableCompact128 store 16 or 24 bytes
	// per state under a budget. They, and TableBitstate's few bits per
	// state, may merge distinct states with the (reported) collision
	// probability, in which case Report.UnderApprox is set. See table.go
	// for the soundness contract. With Dedup off a table only backs the
	// DistinctStates count (nothing is ever pruned, so the search is still
	// provably exhaustive); TableBitstate cannot count and reports 0.
	Table Table
	// TableBytes caps the compacted table's memory (0 = a mode-specific
	// default; ignored by TableExact). Without an explicit budget a slot
	// table starts small and grows up to the default, for any worker
	// count; an explicit budget is allocated up front (split across the
	// workers' shards), so it holds at every instant, and a full shard
	// refuses inserts with ErrTableFull. Bitstate sizes its bit array from
	// it and never fills.
	TableBytes int64
	// SpillNodes, when positive, bounds each worker's resident frontier:
	// when a worker's deque exceeds it, the oldest half is spilled to a
	// temp file as schedules (a few bytes per node, systems closed back
	// into the pool) and reloaded batch-wise when the resident frontier
	// drains. One worker keeps the exact depth-first order, and the claimed
	// pairs do not depend on order anyway, so a spilled run's Report equals
	// the unspilled one (Mem aside).
	SpillNodes int
	// SpillDir is the directory for frontier spill files ("" means the
	// system temp directory). Files are removed when the search ends.
	SpillDir string
	// Progress, when non-nil, is called with the running expanded-state
	// count roughly every progressStride configurations, so long
	// explorations can surface liveness (a job's states-visited counter)
	// without per-state overhead. With several workers the callback runs
	// on worker goroutines — possibly several at once — so it must be safe
	// for concurrent use and should return quickly.
	Progress func(states int64)
	// testPWMask truncates the slot table's probe words — dropping the
	// check word too under TableExact, so exact fingerprints collide while
	// compact128's check word still separates them — so tests can plant
	// fingerprint collisions deterministically. Zero (always, outside
	// tests) leaves fingerprints untouched.
	testPWMask uint64
}

// Violation describes a safety violation found during exploration.
type Violation struct {
	Schedule []int
	Problem  string
}

func (v Violation) String() string {
	return fmt.Sprintf("schedule %v: %s", v.Schedule, v.Problem)
}

// Report summarizes an exploration.
type Report struct {
	// Runs counts maximal schedules examined (all processes finished, or
	// depth reached).
	Runs int64
	// States counts configurations expanded (internal nodes included).
	// With Dedup this is the number of distinct (state, depth) pairs
	// reached: a state reached at several depths is expanded once per
	// depth.
	States int64
	// Deduped counts configurations pruned by the seen-state table.
	Deduped int64
	// Truncated reports whether MaxRuns stopped the search early.
	Truncated bool
	// Violations lists any safety violations (empty means the protocol is
	// safe over the explored space), ordered lexicographically by schedule —
	// which is exactly the depth-first discovery order.
	Violations []Violation
	// DecidedValues is the sorted set of values decided in any explored
	// configuration. It is invariant across worker counts and (for the
	// depth-bounded search) the Dedup setting: pruning only ever
	// removes configurations whose decisions also occur in a retained twin
	// subtree.
	DecidedValues []int
	// DistinctStates counts distinct state fingerprints among all
	// configurations reached (including ones pruned by the seen-state
	// table), or 0 when some configuration exposed no state key. Like
	// DecidedValues it is invariant across worker counts and Dedup.
	// Every table counts fingerprints, so two states whose 64-bit
	// component hashes collide (~2^-64 per pair) count once, in any mode
	// and with Dedup on or off; TableBitstate cannot count and reports 0.
	DistinctStates int64
	// UnderApprox reports that the run may have under-approximated the
	// bounded state space: a compacted table pruned at least one
	// configuration, so a fingerprint collision could have merged two
	// distinct states and silently skipped a subtree. Violations found are
	// always real; only the *absence* of violations weakens, by the
	// probability below. Exact-table runs — and compacted runs that pruned
	// nothing — never set it.
	UnderApprox bool
	// FalseMergeProb estimates, for an under-approximating run, the
	// probability that at least one merge was false (see table.go for the
	// per-mode formulas). Zero whenever UnderApprox is false.
	FalseMergeProb float64
	// Mem describes the run's memory machinery. Unlike every field above
	// it is diagnostic, not semantic: it varies with the worker count,
	// spilling, and table mode, and is excluded from the differential
	// byte-identity contracts.
	Mem MemStats
}

// MemStats is the memory telemetry of one exploration (Report.Mem).
type MemStats struct {
	// TableBytes is the seen-state table's backing-store size: its slot
	// arrays, or its bit array under bitstate. A slot table shared by
	// several workers grows each of its shards by that shard's own load, so
	// without an explicit Options.TableBytes the figure depends on the
	// worker count and on how the fingerprints spread over the shards, not
	// only on the state set: it is comparable across runs only at one
	// worker.
	TableBytes int64
	// TableOccupancy is the fraction of slots (or bitstate bits) in use.
	TableOccupancy float64
	// PeakFrontier is the largest number of pending frontier nodes —
	// resident plus spilled, across all workers — seen after an expansion.
	PeakFrontier int64
	// PeakResident is the high-water mark of the largest single worker
	// deque. With one worker and no spilling it equals PeakFrontier; with
	// Options.SpillNodes it is what the spill bound actually bounds.
	PeakResident int64
	// SpilledBatches counts frontier batches written to disk, summed across
	// workers (0 unless Options.SpillNodes triggered).
	SpilledBatches int64
}

// progressStride is the state-count interval between Options.Progress
// callbacks: a power of two so the check is a mask, coarse enough that the
// callback never shows up in profiles, fine enough that a watcher sees
// movement within milliseconds on any non-trivial exploration.
const progressStride = 4096

// replay builds a fresh system and applies the schedule prefix: the walk's
// rematerialization of spilled frontier nodes, and CanDecide's start.
func replay(f Factory, prefix []int) (*sim.System, error) {
	sys, err := f()
	if err != nil {
		return nil, err
	}
	for _, pid := range prefix {
		if _, err := sys.Step(pid); err != nil {
			sys.Close()
			return nil, fmt.Errorf("explore: replaying %v: %w", prefix, err)
		}
	}
	return sys, nil
}

// ErrSoloOnChannels is returned by Exhaustive for Options.SoloBudget on a
// system with channels. A process there cannot progress alone: its messages
// move only on the delivery adversary's virtual pids, which are not
// processes and have no solo run, so the probe has no meaning to check.
var ErrSoloOnChannels = errors.New("explore: solo probes need a system without channels")

// Exhaustive explores every interleaving of the live processes up to
// opts.MaxDepth, validating agreement and validity at every configuration.
// Every worker checks ctx once per configuration it takes from the
// frontier, so cancelling ctx aborts the search promptly with ctx.Err()
// (all forked systems closed, all workers joined). A root that cannot fork
// (sim.System.ForksNatively is false) fails with sim.ErrNotForkable, and
// solo probes on a root with channels with ErrSoloOnChannels, before any
// configuration is explored.
func Exhaustive(ctx context.Context, f Factory, opts Options) (*Report, error) {
	root, err := f()
	if err != nil {
		return nil, err
	}
	if err := refuseUnforkable(root); err != nil {
		return nil, err
	}
	if opts.SoloBudget > 0 && root.MaxPid() > root.N() {
		root.Close()
		return nil, ErrSoloOnChannels
	}
	w := newWalker(f, root, opts)
	// Which of several same-depth paths to a shared state claims it is a
	// race between workers, and the claimant's schedule labels every
	// violation below it. One worker claims in depth-first order, which
	// makes the labels a function of the protocol alone: so a several-worker
	// walk with Dedup stops at its first violation and the search re-runs on
	// one worker, bounding the discarded work by the time to that violation.
	w.stopAtViolation = opts.Dedup && len(w.workers) > 1
	rep, err := w.walk(ctx)
	if err == nil && w.stopAtViolation && len(rep.Violations) > 0 {
		one := opts
		one.Workers = 1
		if p := opts.Progress; p != nil {
			done := rep.States
			one.Progress = func(states int64) { p(done + states) }
		}
		return Exhaustive(ctx, f, one)
	}
	return rep, err
}

// refuseUnforkable closes a root that cannot fork and returns
// sim.ErrNotForkable for it. It runs before any walk, so whether a system is
// refused never depends on the shape of its tree: a walk whose configurations
// each have one successor would otherwise never fork at all.
func refuseUnforkable(root *sim.System) error {
	if root.ForksNatively() {
		return nil
	}
	root.Close()
	return fmt.Errorf("explore: %w", sim.ErrNotForkable)
}

// treeNode is one pending configuration of the walk. Nodes carry their
// schedule as a parent chain, materialized into a slice only when a
// violation or a spill needs it. A node reloaded from a frontier spill has
// no parent chain: it carries its whole schedule in prefix, a nil sys until
// first taken, and rematerializes by replay. kids counts an expanded node's
// unreleased children; the last to go recycles it too (worker.release).
type treeNode struct {
	sys    *sim.System
	parent *treeNode
	pid    int // step taken from the parent; meaningless at the root
	depth  int
	prefix []int // spill-reloaded root schedule (nil for forked nodes)
	kids   atomic.Int32
}

func (nd *treeNode) schedule() []int {
	out := make([]int, nd.depth)
	nd.fillSchedule(out)
	return out
}

// fillSchedule writes nd's schedule into out (length nd.depth). Each link
// must climb one level, so at most nd.depth are followed: a chain broken by
// a node recycled while still a parent panics instead of looping.
func (nd *treeNode) fillSchedule(out []int) {
	n := nd
	for ; n.parent != nil; n = n.parent {
		if n.parent.depth != n.depth-1 {
			panic(fmt.Sprintf("explore: broken parent chain: depth %d under depth %d (a node was recycled while still a parent)", n.depth, n.parent.depth))
		}
		out[n.depth-1] = n.pid
	}
	// The chain root contributes its prefix — empty for the true root,
	// the reloaded schedule for a spill root.
	copy(out, n.prefix)
}

// schedSource lazily materializes a configuration's schedule for violation
// reports. Passing an existing pointer (a *treeNode) through the interface
// costs nothing on the no-violation fast path, unlike a per-configuration
// closure, which allocates whether or not a violation ever reads it.
type schedSource interface {
	schedule() []int
}

// soloViolations runs the obstruction-freedom probes at one configuration:
// each live process, alone on a fresh copy of the configuration (soloFrom),
// must decide within budget steps.
func soloViolations(live []int, budget int64, sched schedSource, soloFrom func() (*sim.System, error)) ([]Violation, error) {
	var out []Violation
	for _, pid := range live {
		sys, err := soloFrom()
		if err != nil {
			return nil, err
		}
		ok, err := soloDecides(sys, pid, budget)
		if err != nil {
			return nil, err
		}
		if !ok {
			out = append(out, Violation{
				Schedule: sched.schedule(),
				Problem: fmt.Sprintf("obstruction-freedom: process %d undecided after %d solo steps",
					pid, budget),
			})
		}
	}
	return out, nil
}

// soloDecides runs pid alone on sys (which it owns and closes) for at most
// budget steps, reporting whether it decides.
func soloDecides(sys *sim.System, pid int, budget int64) (bool, error) {
	defer sys.Close()
	for i := int64(0); i < budget && sys.Live(pid); i++ {
		if _, err := sys.Step(pid); err != nil {
			return false, err
		}
	}
	_, ok := sys.Decided(pid)
	return ok, nil
}

// checkSafety validates the decisions made so far in sys against agreement
// and validity; it returns a description of the problem or "". It is
// allocation-free on the no-decision fast path and mirrors
// Result.CheckConsensus's messages.
func checkSafety(sys *sim.System, inputs []int) string {
	if err := sys.Err(); err != nil {
		return err.Error()
	}
	firstPid, agreed := -1, 0
	for pid := 0; pid < sys.N(); pid++ {
		d, ok := sys.Decided(pid)
		if !ok {
			continue
		}
		valid := false
		for _, in := range inputs {
			if d == in {
				valid = true
				break
			}
		}
		if !valid {
			return fmt.Sprintf("validity violated: process %d decided %d, not an input %v",
				pid, d, inputs)
		}
		if firstPid < 0 {
			firstPid, agreed = pid, d
		} else if d != agreed {
			return fmt.Sprintf("agreement violated: process %d decided %d, process %d decided %d",
				firstPid, agreed, pid, d)
		}
	}
	return ""
}

// CanDecide reports whether value v can be decided from the configuration
// reached by prefix using only steps of the processes in set, searching
// schedules up to extraDepth additional steps. It is the bounded executable
// form of the paper's "P can decide v from C". The search is the
// exploration walk with seen-state dedup, restricted to set and stopped at
// the first decision on v; systems that cannot fork fail with
// sim.ErrNotForkable, whatever extraDepth is.
func CanDecide(f Factory, prefix []int, set []int, v, extraDepth int) (bool, error) {
	base, err := replay(f, prefix)
	if err != nil {
		return false, err
	}
	return CanDecideFrom(base, set, v, extraDepth)
}

// CanDecideFrom is CanDecide starting from a live configuration, which it
// owns and closes. The lower-bound machinery calls it directly with forked
// configurations to avoid re-materializing the prefix per oracle query.
func CanDecideFrom(base *sim.System, set []int, v, extraDepth int) (bool, error) {
	if err := refuseUnforkable(base); err != nil {
		return false, err
	}
	if extraDepth <= 0 {
		// Options.MaxDepth 0 means unbounded; here it means base alone.
		defer base.Close()
		for pid := 0; pid < base.N(); pid++ {
			if d, ok := base.Decided(pid); ok && d == v {
				return true, nil
			}
		}
		return false, nil
	}
	w := newWalker(nil, base, Options{MaxDepth: extraDepth, Dedup: true})
	w.allowed = make([]bool, base.N())
	for _, pid := range set {
		if pid >= 0 && pid < len(w.allowed) {
			w.allowed[pid] = true
		}
	}
	w.target, w.hunting = v, true
	if _, err := w.walk(context.Background()); err != nil {
		return false, err
	}
	return w.found.Load(), nil
}
