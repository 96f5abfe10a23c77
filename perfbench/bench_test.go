package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestTailRuleRefusesThinTail: a tail percentile with fewer than ten
// samples beyond it is refused; one with ten is accepted.
func TestTailRuleRefusesThinTail(t *testing.T) {
	samples := func(n int) []time.Duration {
		var lat []time.Duration
		for i := 0; i < n; i++ {
			lat = append(lat, time.Duration(n-i)*time.Microsecond)
		}
		return lat
	}
	// p99 of 1000 samples is rank 990: 10 beyond it.
	if s := summarize(samples(1000), 0.99); s.beyond != 10 || s.tailRule(0.99) != nil {
		t.Fatalf("1000 samples, p99: %d beyond, rule %v", s.beyond, s.tailRule(0.99))
	}
	// p99 of 999 samples is rank 990 too, leaving 9 beyond it.
	s := summarize(samples(999), 0.99)
	if s.beyond != 9 {
		t.Fatalf("999 samples: %d beyond p99, want 9", s.beyond)
	}
	if err := s.tailRule(0.99); err == nil {
		t.Fatal("tail rule accepted a p99 with 9 samples beyond it")
	}
	// p90 needs only 100 samples.
	if err := summarize(samples(100), 0.90).tailRule(0.90); err != nil {
		t.Fatalf("100 samples, p90: %v", err)
	}
}

// TestSelfTimeOverlappingChildren: children of one span that overlap in
// time — parallel workers under one call — are merged as intervals, so
// the parent's self time is its length minus their union, never negative.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1, Count: 1},
		{Name: "w1", Start: 10, End: 60, Parent: 0, Count: 1},
		{Name: "w2", Start: 20, End: 70, Parent: 0, Count: 1},  // overlaps w1
		{Name: "w3", Start: 30, End: 40, Parent: 0, Count: 1},  // inside w1 and w2
		{Name: "w4", Start: 90, End: 120, Parent: 0, Count: 1}, // runs past the parent
		{Name: "leaf", Start: 15, End: 25, Parent: 1, Count: 1},
	}
	self := selfTimes(spans)
	// Union of children within [0,100]: [10,70] and [90,100] = 70.
	if self[0] != 30 {
		t.Fatalf("parent self time %d, want 30", self[0])
	}
	if self[1] != 40 {
		t.Fatalf("w1 self time %d, want 40 (50 minus its child's 10)", self[1])
	}
	if self[2] != 50 || self[3] != 10 {
		t.Fatalf("w2, w3 self times %d, %d, want 50, 10", self[2], self[3])
	}
	st := byName(spans)
	if st["parent"].selfNs != 30 || st["w1"].calls != 1 {
		t.Fatalf("byName: %+v %+v", st["parent"], st["w1"])
	}
}

// TestOpenLoopCountsFromDueTime: when the server stalls, every operation
// due during the stall is charged the wait from its due time, not from
// when a worker got round to sending it.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const (
		rate  = 1000.0 // one operation due every millisecond
		stall = 100 * time.Millisecond
	)
	var calls atomic.Int64
	out := openLoop(400*time.Millisecond, rate, func(i int, _ time.Time) error {
		calls.Add(1)
		if i == 50 {
			time.Sleep(stall)
		}
		return nil
	})
	if out.attempted != 400 || out.failed != 0 || len(out.latencies) != 400 {
		t.Fatalf("attempted %d failed %d latencies %d, want 400, 0, 400", out.attempted, out.failed, len(out.latencies))
	}
	// The operations due in the 100 ms after the stall began queue behind
	// it; the one due 10 ms after it waits about 90 ms, and so on down.
	// Measured from send time they would all read near zero.
	late := 0
	for _, l := range out.latencies {
		if l >= 40*time.Millisecond {
			late++
		}
	}
	if late < 50 {
		t.Fatalf("%d operations charged 40ms or more after a 100ms stall at 1/ms, want at least 50", late)
	}
	if max := summarize(out.latencies, 1).tail; max < float64(stall/time.Millisecond)-5 {
		t.Fatalf("worst latency %.1f ms, want about the %v stall", max, stall)
	}
	// The stall is a sleep: it costs wall time, not CPU time.
	if worst := summarize(out.cpu, 1).tail; worst > float64(stall/time.Millisecond)/2 {
		t.Fatalf("worst CPU time %.1f ms across a %v sleep, want far less", worst, stall)
	}
	if calls.Load() != 400 {
		t.Fatalf("%d calls, want 400", calls.Load())
	}
}

// TestSpeedAdjustPerWindow: an operation's CPU time is scaled by how fast
// the reference job ran in its own second, so the same operation reads the
// same whether the host ran at full speed or at half.
func TestSpeedAdjustPerWindow(t *testing.T) {
	p := &speedProbe{
		at:   []time.Duration{100 * time.Millisecond, 600 * time.Millisecond, 1200 * time.Millisecond, 1700 * time.Millisecond},
		cost: []time.Duration{refJobNominal, refJobNominal, 2 * refJobNominal, 2 * refJobNominal},
	}
	cpu := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	at := []time.Duration{300 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond}
	got := p.adjust(cpu, at)
	// Window 0 ran at nominal speed, window 1 at half; window 2 has no
	// sample and takes the run's median job cost, 1.5x nominal.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond * 2 / 3}
	for i := range want {
		if d := got[i] - want[i]; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("operation %d: adjusted %v, want %v", i, got[i], want[i])
		}
	}
	if (&speedProbe{}).adjust(cpu, at)[1] != cpu[1] {
		t.Fatal("with no reference samples the CPU times must pass through unchanged")
	}
}
