package sim

import "sync"

// Pool recycles Systems across Fork/Close cycles. The explorer (and the
// compiled protocol handles' solve loop) work in a tight rhythm — fork a
// configuration, drive it a few steps, discard it — that would otherwise
// allocate a System, a procState array, a Memory clone, and per-process
// stepper state for every explored branch. A Pool breaks the cycle: Close
// pushes the spent System onto a free list instead of abandoning it to the
// garbage collector, and the next Fork pops it and rebuilds the fork in
// place, reusing every buffer that has capacity. In steady state a
// fork/step/close cycle allocates nothing (see TestForkPoolSteadyStateAllocs).
//
// Usage: attach with System.SetPool; every Fork inherits the pool, and every
// Close of a pool-attached forked System recycles it. Only forked Systems are
// recycled — a factory-built root returns to the garbage collector as usual,
// so a pool never resurrects a System whose steppers it did not build.
//
// The zero Pool is safe for concurrent use: the parallel explorer's workers
// share one pool, forking and closing against it from several goroutines.
// The critical section is a slice push/pop. A pool from NewOwnedPool skips
// the lock, for a single owner such as the explorer's one-worker walk.
type Pool struct {
	mu    sync.Mutex
	owned bool // one goroutine at a time forks and closes: no lock
	free  []*System
}

// NewOwnedPool returns a pool for a single owner: every Fork and Close
// against it must come from one goroutine at a time, ordered by the
// caller, as in the explorer's one-worker walk. It takes no lock.
func NewOwnedPool() *Pool { return &Pool{owned: true} }

// maxPoolFree bounds the free list. The explorer's live frontier, not the
// pool, holds the open configurations, so the list only needs to cover the
// close-to-fork churn window; anything beyond is returned to the garbage
// collector rather than hoarded.
const maxPoolFree = 1024

// get pops a recycled System, or returns nil when the pool is empty.
func (p *Pool) get() *System {
	if p.owned {
		return p.pop()
	}
	p.mu.Lock()
	s := p.pop()
	p.mu.Unlock()
	return s
}

// put recycles a closed System.
func (p *Pool) put(s *System) {
	if p.owned {
		p.push(s)
		return
	}
	p.mu.Lock()
	p.push(s)
	p.mu.Unlock()
}

func (p *Pool) pop() *System {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	s := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return s
}

func (p *Pool) push(s *System) {
	if len(p.free) < maxPoolFree {
		p.free = append(p.free, s)
	}
}

// SetPool attaches a recycling pool to the system: its Forks (and
// transitively theirs) draw recycled Systems from p instead of allocating,
// and return themselves to p when Closed. The caller must guarantee that no
// reference to a Closed descendant is used afterwards — the usual Close
// contract, made load-bearing by reuse. Passing nil detaches.
func (s *System) SetPool(p *Pool) { s.pool = p }
