package explore

// This file is the exploration walk: a fork-at-branch-points depth-first
// search over a frontier of per-worker deques, run on the calling goroutine
// for one worker and across a goroutine pool for more.
//
//   - Frontier: each worker owns a deque of pending forked configurations.
//     The owner pushes and pops at the tail (depth-first, so memory stays
//     O(workers x depth x branching)); an idle worker steals from the head
//     of a victim's deque, which hands it the shallowest — largest — pending
//     subtree, keeping steals rare. With Options.SpillNodes set each worker
//     additionally bounds its resident deque by spilling the steal end to
//     its own disk file as schedules (spill.go) and reloading batches —
//     LIFO, own spill first, then peers' — when the resident frontier runs
//     dry. One worker therefore visits configurations in exact depth-first
//     order, spilled or not.
//   - Claims: the seen-state table (table.go) claims exact (state, depth)
//     pairs, which makes the set of expanded configurations — and therefore
//     every Report counter — independent of scheduling: each reachable
//     (state, depth) pair is expanded exactly once no matter which worker
//     gets there first.
//   - Merge: workers accumulate results into private buffers; the merge sums
//     the counters, unions the decided-value sets, and sorts violations into
//     lexicographic schedule order, which is exactly the depth-first
//     discovery order.
//
// A MaxRuns cap runs on one worker: "the first k maximal schedules" is
// defined by the depth-first order.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// deque is one worker's end of the frontier: owner pushes and pops at the
// tail, thieves steal from the head. A plain mutex suffices — every node
// costs at least one fork plus one step, orders of magnitude more than an
// uncontended lock — and keeps the stealing path trivially correct. The
// storage is a ring buffer, so steals rotate the head instead of re-slicing
// the backing array forward (which crept through the array until each
// reallocation), and the spiller can cut whole runs off the head; capacity
// is bounded by the occupancy high-water mark, which the race hammers
// assert. The ring size is a power of two, so indices wrap by mask. A
// one-worker walk has no thieves, and its deque skips the mutex.
type deque struct {
	mu     sync.Mutex
	shared bool        // thieves may touch the deque: take mu
	buf    []*treeNode // ring holding n nodes starting at head
	head   int
	n      int
	peak   int      // occupancy high-water mark (Report.Mem.PeakResident)
	_      [64]byte // shard the deques a cache line apart
}

func (d *deque) lock() {
	if d.shared {
		d.mu.Lock()
	}
}

func (d *deque) unlock() {
	if d.shared {
		d.mu.Unlock()
	}
}

func (d *deque) push(nd *treeNode) {
	d.lock()
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = nd
	if d.n++; d.n > d.peak {
		d.peak = d.n
	}
	d.unlock()
}

// grow doubles the ring (min 8), unwrapping it to the front. Caller holds
// the lock.
func (d *deque) grow() {
	nb := make([]*treeNode, max(8, 2*len(d.buf)))
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf, d.head = nb, 0
}

// pop takes from the tail (the owner's depth-first end).
func (d *deque) pop() *treeNode {
	d.lock()
	if d.n == 0 {
		d.unlock()
		return nil
	}
	d.n--
	i := (d.head + d.n) & (len(d.buf) - 1)
	nd := d.buf[i]
	d.buf[i] = nil
	d.unlock()
	return nd
}

// steal takes from the head — the shallowest pending node, i.e. the largest
// unexplored subtree, so a successful steal buys the thief the most work per
// synchronization.
func (d *deque) steal() *treeNode {
	d.lock()
	if d.n == 0 {
		d.unlock()
		return nil
	}
	nd := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	d.unlock()
	return nd
}

// spillExtract moves the oldest (shallowest) half of the deque into out,
// head-first, when its occupancy exceeds bound — the same nodes a thief
// would steal, which the owner spills to disk instead — and returns out.
// out comes back empty when the deque is within bound.
func (d *deque) spillExtract(bound int, out []*treeNode) []*treeNode {
	out = out[:0]
	d.lock()
	if d.n <= bound {
		d.unlock()
		return out
	}
	for i := d.n / 2; i > 0; i-- {
		out = append(out, d.buf[d.head])
		d.buf[d.head] = nil
		d.head = (d.head + 1) & (len(d.buf) - 1)
	}
	d.n -= len(out)
	d.unlock()
	return out
}

// peakSize reports the occupancy high-water mark; capacity reports the
// current ring size. Both are read post-join by the merge and by the
// bounded-capacity assertions of the race hammers.
func (d *deque) peakSize() int {
	d.lock()
	defer d.unlock()
	return d.peak
}

func (d *deque) capacity() int {
	d.lock()
	defer d.unlock()
	return len(d.buf)
}

// worker is one worker's private state: its deque end of the frontier, its
// result buffer, and scratch space.
type worker struct {
	id         int
	dq         deque
	runs       int64
	states     int64
	deduped    int64
	violations []Violation
	decided    map[int]struct{}
	keys       sim.SymScratch
	liveBuf    []int
	// free holds released nodes (release): nothing references them any
	// more, so their storage can back the next push. spilling is
	// maybeSpill's reused batch.
	free, spilling []*treeNode
	// sp is this worker's disk spill (non-nil iff Options.SpillNodes > 0):
	// the owner spills its deque's steal end into it and reloads from it
	// when its deque runs dry; idle peers reload from it after failing to
	// steal. spMu guards sp — spill and reload share the file offset and the
	// encode/decode buffer.
	spMu sync.Mutex
	sp   *frontierSpill
}

func (pw *worker) newNode(sys *sim.System, parent *treeNode, pid, depth int) *treeNode {
	if n := len(pw.free); n > 0 {
		nd := pw.free[n-1]
		pw.free = pw.free[:n-1]
		*nd = treeNode{sys: sys, parent: parent, pid: pid, depth: depth}
		return nd
	}
	return &treeNode{sys: sys, parent: parent, pid: pid, depth: depth}
}

// release recycles nd, which the walk is done with, and then each ancestor
// whose last unreleased child it was. Until nd is released it holds one
// count on its parent, so the chain above a pending node stays intact. The
// count drops atomically: a thief may hold a sibling.
func (pw *worker) release(nd *treeNode) {
	pw.free = append(pw.free, nd)
	for p := nd.parent; p != nil; p = p.parent {
		n := p.kids.Add(-1)
		if n < 0 {
			panic("explore: a node released more often than it has children")
		}
		if n > 0 {
			return
		}
		pw.free = append(pw.free, p)
	}
}

// spillRoot builds the node of a spill-reloaded schedule.
func (pw *worker) spillRoot(sched []int) *treeNode {
	nd := pw.newNode(nil, nil, 0, len(sched))
	nd.prefix = sched
	return nd
}

// walker is the shared state of one exploration.
type walker struct {
	opts   Options
	inputs []int
	// f and pool rematerialize spill-reloaded nodes: a reloaded schedule is
	// replayed on a fresh system from f, which then joins the shared pool.
	f       Factory
	pool    *sim.Pool
	root    *sim.System
	seen    *claimer
	workers []*worker
	// allowed, when non-nil, restricts expansion to the processes it marks;
	// hunting stops the walk at the first configuration where some process
	// has decided target, recording found (CanDecide).
	allowed []bool
	target  int
	hunting bool
	found   atomic.Bool
	// stopAtViolation stops the walk at the first recorded violation
	// (Exhaustive then re-runs on one worker; see there).
	stopAtViolation bool
	// pending counts frontier nodes that exist but have not finished
	// processing; it reaches zero exactly when the search space is
	// exhausted. A node's count is released only after its children have
	// been counted and pushed, so pending > 0 while any work exists or can
	// still be created. peakPending is its high-water mark after
	// expansions (Report.Mem.PeakFrontier).
	pending     atomic.Int64
	peakPending atomic.Int64
	// stopped flips on the first error, on cancellation, on truncation, when
	// a hunt succeeds, and at a violation under stopAtViolation; workers
	// then drain without expanding.
	stopped   atomic.Bool
	truncated atomic.Bool
	// progressed is the running expanded-state total behind
	// Options.Progress (workers keep private counters for the report).
	// Touched only when a callback is installed.
	progressed atomic.Int64

	errMu sync.Mutex
	err   error
}

// workerCount resolves Options.Workers: at least one, and exactly one under
// a run cap.
func workerCount(opts Options) int {
	if opts.Workers < 1 || opts.MaxRuns > 0 {
		return 1
	}
	return opts.Workers
}

// newWalker prepares an exploration from root, which the walk owns and
// closes. f may be nil when the walk never spills.
func newWalker(f Factory, root *sim.System, opts Options) *walker {
	nw := workerCount(opts)
	// One pool for all workers: shared, forks and closes hit it from several
	// goroutines (a mutexed free list); one worker owns it outright and
	// skips the lock, as the slot table and the deques do.
	pool := new(sim.Pool)
	if nw == 1 {
		pool = sim.NewOwnedPool()
	}
	root.SetPool(pool)
	w := &walker{
		opts:    opts,
		inputs:  root.Inputs(),
		f:       f,
		pool:    pool,
		root:    root,
		seen:    newClaimer(opts, nw > 1),
		workers: make([]*worker, nw),
	}
	for i := range w.workers {
		w.workers[i] = &worker{id: i, decided: make(map[int]struct{})}
		w.workers[i].dq.shared = nw > 1
	}
	return w
}

func (w *walker) fail(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
	w.stopped.Store(true)
}

// walk runs the exploration to completion. See the file comment for the
// determinism argument.
func (w *walker) walk(ctx context.Context) (*Report, error) {
	if w.opts.SpillNodes > 0 {
		// One spill file per worker, created up front so peers can reload
		// from any worker's spill without racing on its creation.
		for _, pw := range w.workers {
			sp, err := newFrontierSpill(w.opts.SpillDir)
			if err != nil {
				w.fail(err)
				break
			}
			pw.sp = sp
		}
	}
	w.pending.Store(1)
	w.workers[0].dq.push(&treeNode{sys: w.root})
	if len(w.workers) == 1 {
		w.run(ctx, w.workers[0])
	} else {
		var wg sync.WaitGroup
		for _, pw := range w.workers {
			wg.Add(1)
			go func(pw *worker) {
				defer wg.Done()
				w.run(ctx, pw)
			}(pw)
		}
		wg.Wait()
	}
	// On a stop, nodes may remain on the deques; their systems are torn
	// down here so every fork is closed exactly once on every path
	// (spill-reloaded nodes hold none until first processed). Spill files
	// are removed after the join; their batch counters survive for merge.
	for _, pw := range w.workers {
		for nd := pw.dq.pop(); nd != nil; nd = pw.dq.pop() {
			if nd.sys != nil {
				nd.sys.Close()
			}
		}
		if pw.sp != nil {
			pw.sp.close()
		}
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.merge(), nil
}

// run is one worker's loop: pop own work, steal when dry, exit when the
// frontier is globally exhausted or the walk stopped. Each iteration polls
// ctx: on cancellation the shared stop flag flips and every worker drains
// its remaining nodes without expanding them, so the pool exits promptly
// with every forked system closed.
func (w *walker) run(ctx context.Context, pw *worker) {
	spins := 0
	for {
		stopped := w.stopped.Load()
		if !stopped {
			if err := ctx.Err(); err != nil {
				w.fail(err)
				stopped = true
			}
		}
		nd := pw.dq.pop()
		if nd == nil && pw.sp != nil && !stopped {
			// Own deque dry: restore the most recently spilled own batch
			// before stealing — its nodes are the ones this worker's DFS
			// visits next, so the reload preserves worker-local locality.
			nd = w.reloadSpill(pw, pw)
		}
		for off := 1; nd == nil && off < len(w.workers); off++ {
			nd = w.workers[(pw.id+off)%len(w.workers)].dq.steal()
		}
		for off := 1; nd == nil && pw.sp != nil && !stopped && off < len(w.workers); off++ {
			// Nothing resident anywhere: reload a peer's spilled batch.
			nd = w.reloadSpill(pw, w.workers[(pw.id+off)%len(w.workers)])
		}
		if nd == nil {
			if w.pending.Load() == 0 || stopped {
				return
			}
			// Another worker is expanding a node and may publish children.
			// Yield on every failed scan — an idle scan takes every deque
			// mutex, so spinning hot would contend with the busy workers'
			// push/pop exactly when they are the critical path — and park
			// briefly once starvation persists.
			spins++
			runtime.Gosched()
			if spins > 128 {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		spins = 0
		w.process(pw, nd)
	}
}

// reloadSpill pops victim's most recently spilled batch and hands its
// deepest node to pw for immediate processing, publishing the rest on pw's
// own deque (oldest first, so the deque's steal end stays the shallowest).
// The reloaded nodes carry only their schedules — their systems
// rematerialize lazily in process — and their pending counts never lapsed,
// so the termination protocol is untouched.
func (w *walker) reloadSpill(pw, victim *worker) *treeNode {
	victim.spMu.Lock()
	scheds, err := victim.sp.reload()
	victim.spMu.Unlock()
	if err != nil {
		// The batch is lost; stopping drains every worker regardless of the
		// pending counter, so no per-node release is needed here.
		w.fail(err)
		return nil
	}
	if len(scheds) == 0 {
		return nil
	}
	for _, sched := range scheds[:len(scheds)-1] {
		pw.dq.push(pw.spillRoot(sched))
	}
	return pw.spillRoot(scheds[len(scheds)-1])
}

// maybeSpill bounds pw's resident frontier: when the deque outgrows
// Options.SpillNodes its oldest half is written to pw's spill file as
// schedules and the systems are closed back into the pool. The spilled
// nodes stay pending — they move from RAM to disk, not out of the search.
func (w *walker) maybeSpill(pw *worker) {
	pw.spilling = pw.dq.spillExtract(w.opts.SpillNodes, pw.spilling)
	nds := pw.spilling
	if len(nds) == 0 {
		return
	}
	pw.spMu.Lock()
	err := pw.sp.spill(nds)
	pw.spMu.Unlock()
	for _, nd := range nds {
		if nd.sys != nil {
			nd.sys.Close()
		}
		pw.release(nd)
	}
	if err != nil {
		// The extracted nodes are lost: release their pending counts and let
		// the stop flag drain the rest.
		w.fail(err)
		w.pending.Add(-int64(len(nds)))
	}
}

// process is the one place a configuration is handled: claim, visit,
// safety check, solo probes, expansion, and spill, against the worker's
// private buffers and the shared table.
func (w *walker) process(pw *worker, nd *treeNode) {
	sys := nd.sys
	nd.sys = nil // ownership leaves the frontier here
	// drop releases a node that will never be a parent.
	drop := func() {
		if sys != nil {
			sys.Close()
		}
		pw.release(nd)
		w.pending.Add(-1)
	}
	if w.stopped.Load() {
		drop()
		return
	}
	if w.opts.MaxRuns > 0 && pw.runs >= w.opts.MaxRuns {
		w.truncated.Store(true)
		w.stopped.Store(true)
		drop()
		return
	}
	if sys == nil {
		// A spill root: rematerialize the configuration by replaying its
		// recorded schedule, which reaches the configuration the closed
		// fork held (the replay oracle battery pins fork/replay agreement).
		var err error
		if sys, err = replay(w.f, nd.prefix); err != nil {
			w.fail(err)
			drop()
			return
		}
		sys.SetPool(w.pool)
	}
	claimed, err := w.seen.claim(sys, nd.depth, &pw.keys)
	if err != nil {
		w.fail(err)
		drop()
		return
	}
	if !claimed {
		pw.deduped++
		drop()
		return
	}
	pw.states++
	if w.opts.Progress != nil {
		if total := w.progressed.Add(1); total&(progressStride-1) == 0 {
			w.opts.Progress(total)
		}
	}
	for pid := 0; pid < sys.N(); pid++ {
		if d, ok := sys.Decided(pid); ok {
			pw.decided[d] = struct{}{}
			if w.hunting && d == w.target {
				w.found.Store(true)
				w.stopped.Store(true)
			}
		}
	}
	if problem := checkSafety(sys, w.inputs); problem != "" {
		pw.violations = append(pw.violations, Violation{Schedule: nd.schedule(), Problem: problem})
	}
	live := sys.AppendLive(pw.liveBuf[:0])
	if w.allowed != nil {
		live = slices.DeleteFunc(live, func(pid int) bool { return !w.allowed[pid] })
	}
	pw.liveBuf = live
	if w.opts.SoloBudget > 0 {
		vs, err := soloViolations(live, w.opts.SoloBudget, nd, sys.Fork)
		if err != nil {
			w.fail(err)
			drop()
			return
		}
		pw.violations = append(pw.violations, vs...)
	}
	if w.stopAtViolation && len(pw.violations) > 0 {
		w.stopped.Store(true)
		drop()
		return
	}
	if len(live) == 0 || (w.opts.MaxDepth > 0 && nd.depth >= w.opts.MaxDepth) {
		pw.runs++
		drop()
		return
	}
	// Fork a child per live process beyond the first; the first child takes
	// over the parent system and steps it in place — one fork per sibling
	// beyond the first, none for chains. Children are pushed deepest-last
	// so the owner's tail pop continues depth-first in ascending pid order.
	// Each is counted pending before it is published, and nd counts all of
	// them unreleased before the first can be stolen; on an error the count
	// never reaches zero, so nd, which parents pushed children, is kept.
	nd.kids.Store(int32(len(live)))
	for i := len(live) - 1; i >= 0; i-- {
		pid, child := live[i], sys
		if i > 0 {
			if child, err = sys.Fork(); err != nil {
				w.fail(err)
				sys.Close()
				w.pending.Add(-1)
				return
			}
		}
		if _, err := child.Step(pid); err != nil {
			w.fail(fmt.Errorf("explore: extending %v by %d: %w", nd.schedule(), pid, err))
			if i > 0 {
				child.Close()
			}
			sys.Close()
			w.pending.Add(-1)
			return
		}
		w.pending.Add(1)
		pw.dq.push(pw.newNode(child, nd, pid, nd.depth+1))
	}
	if w.opts.SpillNodes > 0 {
		w.maybeSpill(pw)
	}
	n := w.pending.Add(-1)
	for old := w.peakPending.Load(); n > old; old = w.peakPending.Load() {
		if w.peakPending.CompareAndSwap(old, n) {
			break
		}
	}
}

// merge combines the per-worker buffers into the final Report. Violations
// sort into lexicographic schedule order — the depth-first discovery order
// — with a stable sort so the safety-then-solo emission order within one
// configuration survives (one configuration is processed by exactly one
// worker, so its violations are contiguous in that worker's buffer).
func (w *walker) merge() *Report {
	rep := &Report{Truncated: w.truncated.Load()}
	decided := make(map[int]struct{})
	for _, pw := range w.workers {
		rep.Runs += pw.runs
		rep.States += pw.states
		rep.Deduped += pw.deduped
		rep.Violations = append(rep.Violations, pw.violations...)
		for v := range pw.decided {
			decided[v] = struct{}{}
		}
		rep.Mem.PeakResident = max(rep.Mem.PeakResident, int64(pw.dq.peakSize()))
		if pw.sp != nil {
			rep.Mem.SpilledBatches += pw.sp.spilled
		}
	}
	slices.SortStableFunc(rep.Violations, func(a, b Violation) int {
		return slices.Compare(a.Schedule, b.Schedule)
	})
	for v := range decided {
		rep.DecidedValues = append(rep.DecidedValues, v)
	}
	slices.Sort(rep.DecidedValues)
	rep.Mem.PeakFrontier = w.peakPending.Load()
	w.seen.summarize(rep)
	return rep
}
