// Package serve is the reusable core of cmd/reprod, the long-running
// HTTP/JSON verification service over the compiled-handle API: a concurrent
// LRU cache of compiled protocol handles, a persistent (append-only,
// checksummed) verify-result cache, a bounded verify job queue with a worker
// pool and end-to-end context cancellation, and the HTTP surface itself —
// solve, streamed batch sweeps, async verify jobs, status, health, and
// Prometheus-text metrics — with no dependencies outside the standard
// library and the repro package.
//
// The termination discipline is fair in the sense of the session-type
// literature: every accepted job reaches a terminal state — done, failed,
// or observably cancelled — and a graceful shutdown drains the queue rather
// than dropping it. Nothing is ever silently lost.
package serve

import (
	"container/list"
	"sync"

	"repro"
)

// HandleKey identifies one compiled protocol handle: the compile-time tuple
// (row, n, value domain, buffer capacity). Zero Values and L mean the
// package defaults (values = n for most rows, l = 2), mirroring Compile's
// option defaults, so requests that omit the fields share cache entries
// with requests that spell the defaults out only if they spell them as
// zero — the key is the request tuple, not the resolved tuple, which keeps
// keying allocation-free on the hot path.
type HandleKey struct {
	Row    string
	N      int
	Values int // 0 = the row's default domain
	L      int // 0 = the default buffer capacity
}

// handleEntry is one cache slot. Compilation runs outside the cache lock
// under the entry's once, so concurrent first requests for one key compile
// exactly once and requests for other keys never wait behind it.
type handleEntry struct {
	key  HandleKey
	once sync.Once
	p    *repro.Protocol
	err  error
}

// handleCache is the concurrent LRU of compiled handles. Repeated solves
// and verifies for one (row, n, values, l) fork the cached handle's
// pristine snapshots instead of recompiling the row — the amortization the
// compiled-handle API was built for, shared across all requests of the
// service. Compile errors are cached too (they are deterministic), so a
// misspelled row does not recompile on every request; eviction eventually
// drops them like any other entry.
type handleCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *handleEntry; front = most recently used
	byKey map[HandleKey]*list.Element

	hits, misses int64
}

func newHandleCache(capacity int) *handleCache {
	if capacity < 1 {
		capacity = 1
	}
	return &handleCache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[HandleKey]*list.Element, capacity),
	}
}

// get returns the compiled handle for the key, compiling (and caching) it
// on first use and evicting the least recently used entry beyond capacity.
func (c *handleCache) get(k HandleKey) (*repro.Protocol, error) {
	c.mu.Lock()
	var e *handleEntry
	if el, ok := c.byKey[k]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		e = el.Value.(*handleEntry)
	} else {
		c.misses++
		e = &handleEntry{key: k}
		c.byKey[k] = c.lru.PushFront(e)
		for c.lru.Len() > c.cap {
			back := c.lru.Back()
			c.lru.Remove(back)
			delete(c.byKey, back.Value.(*handleEntry).key)
		}
	}
	c.mu.Unlock()
	e.once.Do(func() { e.p, e.err = compileKey(e.key) })
	return e.p, e.err
}

func compileKey(k HandleKey) (*repro.Protocol, error) {
	// Only zero means "default": Compile rejects a negative capacity or
	// value count with ErrBadInput rather than compiling the default.
	var opts []repro.CompileOption
	if k.L != 0 {
		opts = append(opts, repro.BufferCap(k.L))
	}
	if k.Values != 0 {
		opts = append(opts, repro.WithValues(k.Values))
	}
	return repro.Compile(k.Row, k.N, opts...)
}

// stats snapshots the cache counters for /status and /metrics.
func (c *handleCache) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len()
}
