package repro

import "fmt"

// This file defines the typed per-operation options of the compiled-handle
// API. Each verb on *Protocol accepts its own option interface —
// CompileOption, SolveOption, VerifyOption, BatchOption — so an option that
// makes no sense for an operation (a schedule seed on the exhaustive
// verifier, a worker-pool size on a single-schedule solve) cannot be passed
// to it: such misuse is a type error. Options meaningful to several verbs
// implement several interfaces (MaxSteps is a RunOption, Workers a
// PoolOption) and remain a single value at call sites.

// The package-wide run defaults.
const (
	defaultSeed      = 1          // schedule seed of Solve
	defaultBufferCap = 2          // l for the l-buffer rows
	defaultMaxSteps  = 50_000_000 // step budget of Solve, SolveBatch and Steps
)

// CompileOption configures Compile.
type CompileOption interface{ applyCompile(*compileConfig) }

// SolveOption configures one Protocol.Solve run.
type SolveOption interface{ applySolve(*solveConfig) }

// VerifyOption configures one Protocol.Verify exploration.
type VerifyOption interface{ applyVerify(*verifyConfig) }

// BatchOption configures one Protocol.SolveBatch sweep.
type BatchOption interface{ applyBatch(*batchConfig) }

// RunOption is an option valid for both Solve and SolveBatch.
type RunOption interface {
	SolveOption
	BatchOption
}

// PoolOption is an option valid for both Verify and SolveBatch — the two
// operations that spread work across a worker pool.
type PoolOption interface {
	VerifyOption
	BatchOption
}

type compileConfig struct {
	l         int
	values    int
	valuesSet bool
	// Delivery model for the message-passing rows (WithDelivery).
	deliver    DeliveryMode
	maxDrops   int
	deliverSet bool
	// Scenario overlay (WithScenario); resolved against the portfolio by
	// Compile.
	scenario    string
	scenarioSet bool
	// err records the first invalid option; Compile reports it before
	// resolving the row, like every other input error.
	err error
}

type solveConfig struct {
	seed     int64
	maxSteps int64
}

type verifyConfig struct {
	workers    int
	workersSet bool
	maxRuns    int64
	soloBudget int64
	symmetry   bool
	table      TableMode
	tableBytes int64
	spillNodes int
	spillDir   string
	progress   func(states int64)
	// err records the first invalid option; Verify reports it before any
	// protocol construction, like every other input error.
	err error
}

type batchConfig struct {
	workers  int
	maxSteps int64
	// err records the first invalid option; SolveBatch reports it in every
	// result slot.
	err error
}

func (p *Protocol) solveConfig(opts []SolveOption) solveConfig {
	c := solveConfig{seed: defaultSeed, maxSteps: defaultMaxSteps}
	for _, o := range opts {
		o.applySolve(&c)
	}
	return c
}

func (p *Protocol) verifyConfig(opts []VerifyOption) verifyConfig {
	var c verifyConfig
	for _, o := range opts {
		o.applyVerify(&c)
	}
	return c
}

func (p *Protocol) batchConfig(opts []BatchOption) batchConfig {
	c := batchConfig{maxSteps: defaultMaxSteps}
	for _, o := range opts {
		o.applyBatch(&c)
	}
	return c
}

// negativeOption records in *first, unless an earlier option already
// failed, that the option name was given a negative bound v.
func negativeOption(first *error, name string, v int64) {
	if v < 0 && *first == nil {
		*first = fmt.Errorf("%w: %s(%d) is negative", ErrBadInput, name, v)
	}
}

// BufferCap sets the buffer capacity l for the l-buffer rows (T1.6, T1.MA).
// Capacity is part of the row's identity — it changes the instruction set
// and the space bounds — so it is fixed at compile time. Default 2; Compile
// reports ErrBadInput for l < 1.
func BufferCap(l int) CompileOption { return bufferCapOption(l) }

type bufferCapOption int

func (o bufferCapOption) applyCompile(c *compileConfig) {
	c.l = int(o)
	if o < 1 && c.err == nil {
		c.err = fmt.Errorf("%w: BufferCap(%d) needs capacity at least 1", ErrBadInput, int(o))
	}
}

// WithValues compiles the row's m-valued form: n processes with inputs
// drawn from [0, m) rather than the default [0, n). The rows stated for
// arbitrary value counts in the paper (the racing-counter rows T1.3, T1.6,
// T1.11, T1.12, T1.13 — Lemma 3.1 is an m-valued statement) support it;
// Compile reports ErrBadInput for rows without an m-valued form and for
// m < 1. Steps and Bounds always profile the row's standard n-valued form.
func WithValues(m int) CompileOption { return valuesOption(m) }

type valuesOption int

func (o valuesOption) applyCompile(c *compileConfig) { c.values, c.valuesSet = int(o), true }

// Seed selects the (reproducible) random schedule of one Solve run.
// Default 1.
func Seed(seed int64) SolveOption { return seedOption(seed) }

type seedOption int64

func (o seedOption) applySolve(c *solveConfig) { c.seed = int64(o) }

// MaxSteps bounds a run's step count (default 50 million). On SolveBatch it
// is the default budget for specs that leave RunSpec.MaxSteps zero. A
// negative budget reports ErrBadInput.
func MaxSteps(s int64) RunOption { return maxStepsOption(s) }

type maxStepsOption int64

func (o maxStepsOption) applySolve(c *solveConfig) { c.maxSteps = int64(o) }
func (o maxStepsOption) applyBatch(c *batchConfig) {
	c.maxSteps = int64(o)
	negativeOption(&c.err, "MaxSteps", int64(o))
}

// Workers sizes the worker pool (0 = GOMAXPROCS; negative reports
// ErrBadInput). On Verify it sets how many goroutines the exploration walk
// spreads across (without it the walk runs on the calling goroutine); on
// SolveBatch it sets the number of concurrent runs. Worker count changes wall-clock time, never results:
// every VerifyReport field but Mem, violation schedules included, and
// every batch outcome are worker-count-invariant.
func Workers(w int) PoolOption { return workersOption(w) }

type workersOption int

func (o workersOption) applyVerify(c *verifyConfig) {
	c.workers, c.workersSet = int(o), true
	negativeOption(&c.err, "Workers", int64(o))
}

func (o workersOption) applyBatch(c *batchConfig) {
	c.workers = int(o)
	negativeOption(&c.err, "Workers", int64(o))
}

// MaxRuns caps the number of maximal schedules Verify examines (0 =
// unlimited; negative reports ErrBadInput); a capped exploration sets
// VerifyReport.Truncated. Run caps are a depth-first-order notion, so a
// capped exploration runs on one worker even when Workers is given.
func MaxRuns(k int64) VerifyOption { return maxRunsOption(k) }

type maxRunsOption int64

func (o maxRunsOption) applyVerify(c *verifyConfig) {
	c.maxRuns = int64(o)
	negativeOption(&c.err, "MaxRuns", int64(o))
}

// SoloBudget additionally checks obstruction-freedom at every explored
// configuration: each live process, run alone, must decide within budget
// steps. This multiplies the exploration cost by roughly n×budget per
// configuration. Zero disables the check; negative reports ErrBadInput.
func SoloBudget(budget int64) VerifyOption { return soloBudgetOption(budget) }

type soloBudgetOption int64

func (o soloBudgetOption) applyVerify(c *verifyConfig) {
	c.soloBudget = int64(o)
	negativeOption(&c.err, "SoloBudget", int64(o))
}

// TableMode selects the representation of Verify's seen-state table — the
// exactness/memory trade-off of the exploration. See WithTable.
type TableMode int

const (
	// TableExact stores full canonical state keys: exact deduplication,
	// the default, and the memory-hungriest representation.
	TableExact TableMode = iota
	// TableCompact stores 64-bit state fingerprints (hash compaction,
	// 8 bytes per state): distinct states whose fingerprints collide merge
	// falsely, so the report carries UnderApprox with the birthday-bound
	// FalseMergeProb whenever anything was pruned.
	TableCompact
	// TableCompact128 stores 128-bit fingerprints (16 bytes per state):
	// the same compaction with a collision probability that is negligible
	// at any reachable state count.
	TableCompact128
	// TableBitstate marks (state, depth) claims as bits in a Bloom filter
	// (bitstate/supertrace search): a fixed memory budget regardless of
	// state count, an always-under-approximate envelope, and no distinct-
	// state counting.
	TableBitstate
)

// String returns the mode's flag spelling: exact, compact, compact128,
// bitstate.
func (m TableMode) String() string {
	switch m {
	case TableExact:
		return "exact"
	case TableCompact:
		return "compact"
	case TableCompact128:
		return "compact128"
	case TableBitstate:
		return "bitstate"
	}
	return "invalid"
}

// ParseTableMode parses a TableMode's String spelling, for flag and config
// surfaces.
func ParseTableMode(s string) (TableMode, error) {
	for _, m := range []TableMode{TableExact, TableCompact, TableCompact128, TableBitstate} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown table mode %q (want exact, compact, compact128, or bitstate)", ErrBadInput, s)
}

// WithTable selects the seen-state table representation of a Verify
// exploration (default TableExact). The compacted modes trade exactness for
// memory: they can only under-report the envelope — never invent states,
// runs, or violations — and any run that pruned through a compacted table
// says so via VerifyReport.UnderApprox and FalseMergeProb. A safety
// violation found under any mode is always real.
func WithTable(m TableMode) VerifyOption { return tableOption(m) }

type tableOption TableMode

func (o tableOption) applyVerify(c *verifyConfig) { c.table = TableMode(o) }

// WithTableBytes caps the compacted table's memory (default 64 MiB for the
// compact modes, 32 MiB for bitstate). An explicit budget is a hard cap at
// every instant: the compact table is allocated at its final size up front
// — no growth rehash whose transient footprint would overshoot the cap —
// and refuses with an error, never a silent drop, when the cap cannot hold
// the explored states; bitstate filters never refuse, their false-merge
// probability just grows with occupancy. Ignored under TableExact; zero
// means the default; a negative budget reports ErrBadInput from Verify.
func WithTableBytes(b int64) VerifyOption { return tableBytesOption(b) }

type tableBytesOption int64

func (o tableBytesOption) applyVerify(c *verifyConfig) {
	c.tableBytes = int64(o)
	negativeOption(&c.err, "WithTableBytes", int64(o))
}

// WithSpillFrontier bounds the resident exploration frontier to about nodes
// pending configurations per worker: when a worker's frontier outgrows the
// bound, its oldest half is spilled to a temporary file under dir ("" = the
// OS temp directory) as compact schedules and rematerialized by replay when
// the search returns to it. The report is byte-identical to the unspilled
// run's (only VerifyReport.Mem differs). Under Workers every worker spills
// its own frontier to its own file, and idle workers reload from peers
// before going to sleep, so the resident frontier is bounded by about
// nodes x workers. Zero nodes disables spilling; negative reports
// ErrBadInput.
func WithSpillFrontier(nodes int, dir string) VerifyOption {
	return spillOption{nodes: nodes, dir: dir}
}

type spillOption struct {
	nodes int
	dir   string
}

func (o spillOption) applyVerify(c *verifyConfig) {
	c.spillNodes, c.spillDir = o.nodes, o.dir
	negativeOption(&c.err, "WithSpillFrontier", int64(o.nodes))
}

// WithSymmetry keys Verify's seen-state table on the symmetry-reduced
// canonical configuration: the paper's model requires uniform,
// interchangeable memory locations, so configurations equal up to a
// permutation of the locations — and up to a permutation of
// indistinguishable processes, for protocols whose steppers opt in — merge
// to one table entry. The safety verdict and the decided-value set are
// provably unchanged; States, Deduped, and DistinctStates shrink (the
// latter then counts symmetry orbits). Protocols whose processes expose no
// symmetric key fall back to the exact key transparently.
func WithSymmetry() VerifyOption { return symmetryOption{} }

type symmetryOption struct{}

func (symmetryOption) applyVerify(c *verifyConfig) { c.symmetry = true }

// DeliveryMode selects the network adversary of a message-passing row — how
// much freedom the scheduler has over the order (and survival) of in-flight
// messages. See WithDelivery.
type DeliveryMode int

const (
	// DeliveryOrdered delivers each channel's pending messages in FIFO
	// send order: the only delivery branch per channel is "deliver the
	// oldest". The weakest adversary, and the default.
	DeliveryOrdered DeliveryMode = iota
	// DeliveryReorder lets the adversary deliver any pending message of a
	// channel, not just the oldest: every pending rank is its own
	// scheduling branch, modeling an asynchronous network that reorders
	// freely but never loses.
	DeliveryReorder
	// DeliveryLossy is DeliveryReorder plus adversarial message loss: the
	// adversary may also drop any pending message, up to the compiled
	// drop budget (WithDelivery's maxDrops).
	DeliveryLossy
)

// String returns the mode's flag spelling: ordered, reorder, lossy.
func (m DeliveryMode) String() string {
	switch m {
	case DeliveryOrdered:
		return "ordered"
	case DeliveryReorder:
		return "reorder"
	case DeliveryLossy:
		return "lossy"
	}
	return "invalid"
}

// ParseDeliveryMode parses a DeliveryMode's String spelling, for flag and
// config surfaces.
func ParseDeliveryMode(s string) (DeliveryMode, error) {
	for _, m := range []DeliveryMode{DeliveryOrdered, DeliveryReorder, DeliveryLossy} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown delivery mode %q (want ordered, reorder, or lossy)", ErrBadInput, s)
}

// WithDelivery fixes the delivery adversary of a message-passing row
// (MP.QSC): every run and every exploration of the handle branches over the
// chosen adversary's delivery moves. maxDrops is the adversary's total drop
// budget and is only meaningful under DeliveryLossy (it must be zero for the
// other modes); exploration treats each drop like any other scheduling
// branch, so the verified envelope covers every loss pattern within the
// budget. The delivery model is part of the handle's identity — it changes
// the reachable state space — so, like BufferCap, it is fixed at compile
// time. Compiling a row without message channels WithDelivery reports
// ErrBadInput. Default DeliveryOrdered with no drops.
func WithDelivery(m DeliveryMode, maxDrops int) CompileOption {
	return deliveryOption{mode: m, maxDrops: maxDrops}
}

type deliveryOption struct {
	mode     DeliveryMode
	maxDrops int
}

func (o deliveryOption) applyCompile(c *compileConfig) {
	switch {
	case o.mode < DeliveryOrdered || o.mode > DeliveryLossy:
		if c.err == nil {
			c.err = fmt.Errorf("%w: invalid DeliveryMode(%d)", ErrBadInput, int(o.mode))
		}
	case o.maxDrops < 0:
		if c.err == nil {
			c.err = fmt.Errorf("%w: WithDelivery maxDrops %d is negative", ErrBadInput, o.maxDrops)
		}
	case o.maxDrops > 0 && o.mode != DeliveryLossy:
		if c.err == nil {
			c.err = fmt.Errorf("%w: WithDelivery maxDrops %d needs DeliveryLossy, got %s",
				ErrBadInput, o.maxDrops, o.mode)
		}
	default:
		c.deliver, c.maxDrops, c.deliverSet = o.mode, o.maxDrops, true
	}
}

// WithScenario compiles the MP.QSC handle as one entry of the adversarial
// scenario portfolio (Scenarios lists them): the scenario's protocol variant
// replaces the row's — possibly with a scripted Byzantine process — its
// initial crashes are applied and its planted schedule prefix replayed
// before every run, and its delivery model becomes the handle's default
// (overridable by an explicit WithDelivery). The handle's n must equal the
// scenario's process count, and the planted verdicts assume the scenario's
// canonical inputs (ScenarioInfo.Inputs). Unknown names, non-MP.QSC rows,
// and combination with WithValues report ErrBadInput.
func WithScenario(name string) CompileOption { return scenarioOption(name) }

type scenarioOption string

func (o scenarioOption) applyCompile(c *compileConfig) { c.scenario, c.scenarioSet = string(o), true }

// WithProgress installs a liveness callback on one Verify exploration: fn
// receives the running expanded-configuration count roughly every few
// thousand states, letting callers surface progress (a job's states-visited
// gauge) on explorations that run for minutes. Under Workers the callback
// fires on worker goroutines — possibly concurrently — so fn must be safe
// for concurrent use and should return quickly; the final VerifyReport is
// unaffected.
func WithProgress(fn func(states int64)) VerifyOption { return progressOption(fn) }

type progressOption func(states int64)

func (o progressOption) applyVerify(c *verifyConfig) { c.progress = o }
