package explore

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/consensus"
)

// cancelCase runs one explorer against a deliberately oversized
// exploration (registers, n=4, deep bound: far too many interleavings to
// finish) and cancels it mid-flight.
func cancelCase(t *testing.T, explore func(context.Context, Factory, Options) (*Report, error), opts Options) {
	t.Helper()
	f := factoryFor(func() *consensus.Protocol { return consensus.Registers(4) }, []int{0, 1, 2, 3})

	// Pre-cancelled: the walk must not expand anything.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := explore(pre, f, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: want context.Canceled, got %v", err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	rep, err := explore(ctx, f, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (rep=%+v)", err, rep)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Workers (and any body coroutines of closed systems) must be joined.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestCancelSequentialFork: the one-worker walk checks the context at every
// configuration it takes from the frontier.
func TestCancelSequentialFork(t *testing.T) {
	cancelCase(t, Exhaustive, Options{MaxDepth: 40, Dedup: true})
}

// TestCancelReplay: the replay oracle checks the context at every prefix.
func TestCancelReplay(t *testing.T) {
	cancelCase(t, exhaustiveReplay, Options{MaxDepth: 40})
}

// TestCancelParallel: every worker of the walk observes the cancellation,
// drains its deque, and exits; all forks are closed.
func TestCancelParallel(t *testing.T) {
	cancelCase(t, Exhaustive, Options{MaxDepth: 40, Workers: 4, Dedup: true})
}
