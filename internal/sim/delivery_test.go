package sim

import (
	"maps"
	"testing"

	"repro/internal/machine"
)

// chanMem builds a memory with one FIFO channel per process.
func chanMem(n, cap int, kind machine.ChanKind) *machine.Memory {
	specs := make([]machine.ChannelSpec, n)
	for i := range specs {
		specs[i] = machine.ChannelSpec{Loc: i, Kind: kind, Cap: cap}
	}
	return machine.New(machine.SetChannels, n, machine.WithChannels(specs))
}

// pingPong is a two-process body: send input to the peer's channel, receive
// from own channel, decide the received value.
func pingPong(p *Proc) int {
	peer := (p.ID() + 1) % p.N()
	p.Send(peer, machine.Int(int64(p.Input())))
	return int(machine.MustInt(p.Recv(p.ID())).Int64())
}

// TestDeliveryPipeline drives the ping-pong exchange end to end under the
// default ordered delivery, checking the virtual-pid live set at each stage.
func TestDeliveryPipeline(t *testing.T) {
	s := NewSystem(chanMem(2, 2, machine.ChanFIFO), []int{10, 20}, pingPong)
	defer s.Close()
	if s.MaxPid() != 2+2*2*2 {
		t.Fatalf("MaxPid = %d", s.MaxPid())
	}
	// Initially both processes are poised on sends, no deliveries enabled.
	if got := s.AppendLive(nil); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("initial live = %v", got)
	}
	if _, err := s.Step(0); err != nil {
		t.Fatal(err)
	}
	// Proc 0 sent to channel 1: its delivery pid (k=1, rank 0) is enabled;
	// proc 0 itself is now blocked on recv from its empty channel 0.
	live := s.AppendLive(nil)
	want := []int{1, 2 + 1*2 + 0}
	if len(live) != 2 || live[0] != want[0] || live[1] != want[1] {
		t.Fatalf("live after send = %v, want %v", live, want)
	}
	if s.Live(0) {
		t.Fatal("proc 0 should be blocked on empty inbox")
	}
	if _, err := s.Step(0); err == nil {
		t.Fatal("stepping a blocked process should fail")
	}
	// Deliver to channel 1, let proc 1 send and receive, then proc 0.
	if _, err := s.Step(2 + 1*2); err != nil {
		t.Fatal(err)
	}
	for _, pid := range []int{1, 2 + 0*2, 1, 0} {
		if _, err := s.Step(pid); err != nil {
			t.Fatalf("step %d: %v", pid, err)
		}
	}
	if d, ok := s.Decided(0); !ok || d != 20 {
		t.Fatalf("proc 0 decided (%d,%v), want 20", d, ok)
	}
	if d, ok := s.Decided(1); !ok || d != 10 {
		t.Fatalf("proc 1 decided (%d,%v), want 10", d, ok)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDeliveryModes pins the enabled adversary moves per mode: ordered FIFO
// exposes rank 0 only, reorder every rank, lossy additionally the drops
// until the budget runs out.
func TestDeliveryModes(t *testing.T) {
	load := func(opts ...SystemOption) *System {
		// One process poised to receive; three messages pending on its
		// channel, sent by the two senders.
		bodies := []Body{
			func(p *Proc) int { return int(machine.MustInt(p.Recv(0)).Int64()) },
			func(p *Proc) int { p.Send(0, machine.Int(1)); p.Send(0, machine.Int(2)); return 0 },
		}
		s := NewSystemBodies(chanMem(1, 4, machine.ChanFIFO), []int{0, 0}, bodies, opts...)
		s.Step(1)
		s.Step(1)
		return s
	}
	countVirtual := func(s *System) (deliver, drop int) {
		for _, pid := range s.AppendLive(nil) {
			if pid < s.N() {
				continue
			}
			op, _, _, _ := s.deliveryChoice(pid)
			if op == machine.OpChanDrop {
				drop++
			} else {
				deliver++
			}
		}
		return
	}

	s := load() // default: ordered
	if del, drop := countVirtual(s); del != 1 || drop != 0 {
		t.Fatalf("ordered: %d deliver, %d drop branches; want 1, 0", del, drop)
	}
	s.Close()

	s = load(WithDelivery(Delivery{Mode: DeliverReorder}))
	if del, drop := countVirtual(s); del != 2 || drop != 0 {
		t.Fatalf("reorder: %d deliver, %d drop branches; want 2, 0", del, drop)
	}
	s.Close()

	s = load(WithDelivery(Delivery{Mode: DeliverLossy, MaxDrops: 1}))
	if del, drop := countVirtual(s); del != 2 || drop != 2 {
		t.Fatalf("lossy: %d deliver, %d drop branches; want 2, 2", del, drop)
	}
	// Spend the drop budget: drop pids vanish, dropsUsed becomes key state.
	dropPid := s.N() + 1*4 // drop space, channel 0, rank 0
	if _, err := s.Step(dropPid); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if s.DropsUsed() != 1 {
		t.Fatalf("dropsUsed = %d", s.DropsUsed())
	}
	if del, drop := countVirtual(s); del != 1 || drop != 0 {
		t.Fatalf("after drop: %d deliver, %d drop branches; want 1, 0", del, drop)
	}
	s.Close()
}

// TestDeliveryKeysFoldDrops pins that configurations identical except for
// consumed drop budget never share a state key, hash, or symmetric key.
func TestDeliveryKeysFoldDrops(t *testing.T) {
	build := func() *System {
		bodies := []Body{
			func(p *Proc) int { p.Send(0, machine.Int(1)); p.Send(0, machine.Int(1)); return 0 },
		}
		s := NewSystemBodies(chanMem(1, 4, machine.ChanFIFO), []int{0}, bodies,
			WithDelivery(Delivery{Mode: DeliverLossy, MaxDrops: 2}))
		s.Step(0)
		s.Step(0)
		return s
	}
	// a: two sends, one dropped — pending [1], drops 1.
	a := build()
	defer a.Close()
	if _, err := a.Step(a.N() + 1*4); err != nil { // drop rank 0
		t.Fatal(err)
	}
	// d: the sharp case — the same pending multiset [1] as a, reached with
	// three sends and two drops, so only the consumed drop budget (and the
	// sender's step count) distinguishes the configurations.
	d := NewSystemBodies(chanMem(1, 4, machine.ChanFIFO), []int{0}, []Body{
		func(p *Proc) int {
			p.Send(0, machine.Int(1))
			p.Send(0, machine.Int(1))
			p.Send(0, machine.Int(1))
			return 0
		},
	}, WithDelivery(Delivery{Mode: DeliverLossy, MaxDrops: 2}))
	defer d.Close()
	for i := 0; i < 3; i++ {
		if _, err := d.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := d.Step(d.N() + 1*4); err != nil {
			t.Fatal(err)
		}
	}
	ha, ok := a.StateHash128()
	if !ok {
		t.Fatal("a unkeyable")
	}
	hd, ok := d.StateHash128()
	if !ok {
		t.Fatal("d unkeyable")
	}
	if ha == hd {
		t.Fatal("states with different drop counts hashed equal")
	}
	ka, ok := a.StateKey()
	if !ok {
		t.Fatal("a has no state key")
	}
	kd, ok := d.StateKey()
	if !ok {
		t.Fatal("d has no state key")
	}
	if ka == kd {
		t.Fatal("states with different drop counts keyed equal")
	}
}

// TestDeliveryHashIncrementalVsStreamed walks a channel system through
// sends, deliveries, drops, receives, forks, and crashes, pinning the
// incremental StateHash128 against the streamed reference at every point.
func TestDeliveryHashIncrementalVsStreamed(t *testing.T) {
	s := NewSystemSteppers(chanMem(3, 6, machine.ChanFIFO), []int{1, 2, 3},
		pingPongSteppers([]int{1, 2, 3}), WithDelivery(Delivery{Mode: DeliverLossy, MaxDrops: 2}))
	defer s.Close()
	check := func(sys *System, at string) {
		t.Helper()
		inc, ok1 := sys.StateHash128()
		ref, ok2 := sys.streamedStateHash128()
		if ok1 != ok2 || (ok1 && inc != ref) {
			t.Fatalf("%s: incremental (%v,%v) != streamed (%v,%v)", at, inc, ok1, ref, ok2)
		}
	}
	check(s, "initial")
	sched := NewRandom(7)
	for i := 0; i < 200; i++ {
		pid := sched.Next(s)
		if pid < 0 {
			break
		}
		if _, err := s.Step(pid); err != nil {
			t.Fatalf("step %d (pid %d): %v", i, pid, err)
		}
		check(s, "after step")
		if i%17 == 0 {
			f, err := s.Fork()
			if err != nil {
				t.Fatalf("fork: %v", err)
			}
			check(f, "fork")
			if _, err := f.Step(0); err == nil {
				check(f, "forked step")
			}
			check(s, "source after fork")
			f.Close()
		}
		if i == 50 {
			s.Crash(2)
			check(s, "after crash")
			s.Crash(s.N() + 1) // virtual pid: must be a no-op
			check(s, "after virtual crash")
		}
	}
}

// TestDeliveryForkCarriesState pins that forks inherit delivery mode, drop
// budget, and channel layout, and that replays through the forked system
// agree with the original.
func TestDeliveryForkCarriesState(t *testing.T) {
	s := NewSystemSteppers(chanMem(2, 4, machine.ChanFIFO), []int{5, 6},
		pingPongSteppers([]int{5, 6}), WithDelivery(Delivery{Mode: DeliverLossy, MaxDrops: 3}))
	defer s.Close()
	s.Step(0)                 // proc 0 sends to channel 1
	s.Step(s.N() + 2*4 + 1*4) // drop space (span 2*4), channel k=1, rank 0
	if s.DropsUsed() != 1 {
		t.Fatal("drop not counted")
	}
	f, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Delivery() != s.Delivery() || f.DropsUsed() != 1 || f.MaxPid() != s.MaxPid() {
		t.Fatal("fork did not carry delivery state")
	}
	ks, _ := s.StateKey()
	kf, _ := f.StateKey()
	if ks != kf {
		t.Fatal("fork state key differs from source")
	}
	sks, ok1 := s.SymStateKey()
	skf, ok2 := f.SymStateKey()
	if ok1 != ok2 || sks != skf {
		t.Fatal("fork sym state key differs from source")
	}
}

// TestPingPongTwinMatchesBody: the ping-pong stepper twin that the fork and
// hash tests run on takes the same steps, under the same seeded schedules
// and delivery adversary, as the pingPong body, and decides the same.
func TestPingPongTwinMatchesBody(t *testing.T) {
	inputs := []int{1, 2, 3}
	opts := []SystemOption{WithTrace(), WithDelivery(Delivery{Mode: DeliverLossy, MaxDrops: 2})}
	for seed := int64(1); seed <= 20; seed++ {
		body := NewSystem(chanMem(3, 6, machine.ChanFIFO), inputs, pingPong, opts...)
		twin := NewSystemSteppers(chanMem(3, 6, machine.ChanFIFO), inputs, pingPongSteppers(inputs), opts...)
		for _, s := range []*System{body, twin} {
			if _, err := s.Run(NewRandom(seed), 1_000); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := traceString(body.Trace()), traceString(twin.Trace()); a != b {
			t.Fatalf("seed %d: trace diverged\nbody %s\ntwin %s", seed, a, b)
		}
		if a, b := body.Decisions(), twin.Decisions(); !maps.Equal(a, b) {
			t.Fatalf("seed %d: decisions diverged: body %v twin %v", seed, a, b)
		}
		body.Close()
		twin.Close()
	}
}
