package sim_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/sim"
)

// TestForkPoolChannelAllocs pins the message-passing half of the pool's
// contract: forking an MP.QSC configuration whose channels hold messages in
// both queues shares the queues instead of copying them, so a warm pooled
// Fork+Close allocates nothing, and a delivery step with tracing off
// allocates at most the inbox it appends to.
func TestForkPoolChannelAllocs(t *testing.T) {
	root, err := consensus.QSC(3).NewSystem([]int{2, 0, 1},
		sim.WithDelivery(sim.Delivery{Mode: sim.DeliverReorder}))
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	// Every process broadcasts phase 1; then the adversary delivers one of
	// the two messages pending on each channel.
	for _, pid := range []int{0, 0, 1, 1, 2, 2} {
		if _, err := root.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	var deliveries []int
	for _, pid := range root.AppendLive(nil) {
		if loc, ok := root.DeliveryTarget(pid); ok && len(deliveries) == loc {
			deliveries = append(deliveries, pid)
		}
	}
	for _, pid := range deliveries {
		if _, err := root.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	mem := root.Mem()
	for loc := 0; loc < 3; loc++ {
		if mem.PendingLen(loc) == 0 || mem.InboxLen(loc) == 0 {
			t.Fatalf("channel %d holds %d pending, %d delivered; want both non-empty",
				loc, mem.PendingLen(loc), mem.InboxLen(loc))
		}
	}
	root.SetPool(new(sim.Pool))

	fork := func() *sim.System {
		child, err := root.Fork()
		if err != nil {
			t.Fatal(err)
		}
		return child
	}
	var dpid int
	for _, pid := range root.AppendLive(nil) {
		if _, ok := root.DeliveryTarget(pid); ok {
			dpid = pid
		}
	}
	forkClose := func() { fork().Close() }
	deliver := func() {
		child := fork()
		if _, err := child.Step(dpid); err != nil {
			t.Fatal(err)
		}
		child.Close()
	}
	for i := 0; i < 3; i++ {
		forkClose() // warm the pool
		deliver()
	}
	if avg := testing.AllocsPerRun(100, forkClose); avg != 0 {
		t.Fatalf("pooled Fork+Close of a channel configuration allocates %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, deliver); avg > 1 {
		t.Fatalf("pooled Fork+delivery step+Close allocates %.1f times, want <= 1", avg)
	}
}
