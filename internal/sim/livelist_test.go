package sim

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
)

// scanLive is the live set by definition: a full scan of every process
// through procEnabled, then the enabled delivery branches. It is the oracle
// AppendLive's live list is checked against.
func scanLive(s *System, dst []int) []int {
	for i, ps := range s.procs {
		if s.procEnabled(ps) {
			dst = append(dst, i)
		}
	}
	if len(s.chanLocs) > 0 {
		dst = s.appendDeliveryLive(dst)
	}
	return dst
}

// checkLiveList fails t unless s's live list holds exactly its live
// processes, ascending, and AppendLive matches the scan oracle.
func checkLiveList(t *testing.T, s *System, step int) {
	t.Helper()
	var want []int
	for i, ps := range s.procs {
		if ps.live() {
			want = append(want, i)
		}
	}
	if !slices.Equal(s.live, want) {
		t.Fatalf("op %d: live list %v, live processes %v", step, s.live, want)
	}
	if got, want := s.AppendLive(nil), scanLive(s, nil); !slices.Equal(got, want) {
		t.Fatalf("op %d: AppendLive %v, scan %v", step, got, want)
	}
}

// twoOpBody issues two reads and decides 1: a Body process that finishes.
func twoOpBody(p *Proc) int {
	p.Apply(0, machine.OpRead)
	p.Apply(1, machine.OpRead)
	return 1
}

// chainSteppers is a ring of n processes over capacity-1 channels: even
// processes send twice to their successor and then receive twice, odd ones
// receive twice and then send twice. The second send of a pair blocks until
// the receiver has drained the channel, and every receive blocks until a
// delivery fills the inbox.
func chainSteppers(n int) []Stepper {
	out := make([]Stepper, n)
	for id := range out {
		peer := (id + 1) % n
		send := Send(peer, machine.Int(int64(id)))
		recv := Recv(id)
		ops := []OpInfo{send, send, recv, recv}
		if id%2 == 1 {
			ops = []OpInfo{recv, recv, send, send}
		}
		out[id] = &opsStepper{ops: ops}
	}
	return out
}

// liveListSystem builds the FuzzLiveList system of the given kind:
//
//	0: shared memory — two race steppers and a stepper whose second
//	   instruction is unsupported, so it fails
//	1: kind 0 plus a Body process that finishes after two reads (Fork
//	   fails while it is live)
//	2, 3, 4: the chainSteppers ring of three under ordered, reorder and
//	   lossy (one drop) delivery
func liveListSystem(kind int) *System {
	if kind >= 2 {
		mode := []Delivery{{Mode: DeliverOrdered}, {Mode: DeliverReorder}, {Mode: DeliverLossy, MaxDrops: 1}}[kind-2]
		return NewSystemSteppers(chanMem(3, 1, machine.ChanFIFO), make([]int, 3), chainSteppers(3), WithDelivery(mode))
	}
	n := 3 + kind
	s := newSystem(forkTestMem(), make([]int, n), nil)
	for i, st := range raceSteppers(2) {
		s.adopt(i, st)
	}
	s.adopt(2, &opsStepper{ops: []OpInfo{
		{Loc: 0, Op: machine.OpRead},
		{Loc: 0, Op: machine.OpSwap, Args: []machine.Value{machine.Int(1)}},
	}})
	if kind == 1 {
		s.adopt(3, newCoroStepper(3, n, 0, &s.steps, twoOpBody))
	}
	return s
}

// FuzzLiveList drives a fuzzed sequence of Step, Crash, Fork and Close over
// a set of up to four systems forked from one root and checks, after every
// operation, that each open system's live list and AppendLive agree with a
// full scan. A pooled root makes every fork pooled, so Close recycles a
// system and a later Fork rebuilds over its storage. ops is read in pairs:
// the low two bits of the first byte pick the operation, the rest pick the
// system, and the second byte is the operation's argument.
func FuzzLiveList(f *testing.F) {
	f.Add(uint8(0), false, []byte{0, 0, 2, 0, 0, 1, 5, 0, 4, 0, 1, 1, 3, 0})
	f.Add(uint8(1), true, []byte{0, 3, 0, 3, 2, 0, 6, 0, 1, 0, 3, 1, 2, 0})
	f.Add(uint8(3), true, []byte{0, 0, 2, 0, 4, 0, 4, 0x83, 5, 2, 3, 1, 2, 0})
	f.Fuzz(checkLiveListOps)
}

// checkLiveListOps is FuzzLiveList's body: it runs one (kind, pooled, ops)
// input and fails t at the first operation after which a system's live list
// disagrees with the scan.
func checkLiveListOps(t *testing.T, kind uint8, pooled bool, ops []byte) {
	if len(ops) > 512 {
		ops = ops[:512]
	}
	root := liveListSystem(int(kind % 5))
	if pooled {
		root.SetPool(new(Pool))
	}
	systems := []*System{root}
	defer func() {
		for _, s := range systems {
			s.Close()
		}
	}()
	checkLiveList(t, root, -1)
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], int(ops[i+1])
		s := systems[int(op>>2)%len(systems)]
		switch op & 3 {
		case 0: // step a live pid, or (high bit) any pid, which may fail
			pid := (arg & 0x7f) % (s.MaxPid() + 1)
			if live := s.AppendLive(nil); len(live) > 0 && arg&0x80 == 0 {
				pid = live[arg%len(live)]
			}
			s.Step(pid)
		case 1:
			s.Crash(arg % (s.MaxPid() + 1))
		case 2:
			child, err := s.Fork()
			if errors.Is(err, ErrNotForkable) {
				break
			}
			if err != nil {
				t.Fatalf("op %d: Fork: %v", i, err)
			}
			if len(systems) < 4 {
				systems = append(systems, child)
				break
			}
			k := 1 + arg%3 // never the root
			systems[k].Close()
			systems[k] = child
		case 3:
			if len(systems) > 1 {
				k := 1 + arg%(len(systems)-1)
				systems[k].Close()
				systems = slices.Delete(systems, k, k+1)
			}
		}
		for _, s := range systems {
			checkLiveList(t, s, i)
		}
	}
}

// TestLiveListRandom runs FuzzLiveList's body over a fixed-seed stream of
// generated inputs, pooled and unpooled, every system kind, schedules of up
// to 256 operations. It covers inputs past the seed corpus in every plain
// test run, where the fuzz engine itself stalls after a few seconds on small
// hosts.
func TestLiveListRandom(t *testing.T) {
	const inputs = 8000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < inputs; i++ {
		kind, pooled, ops := uint8(rng.Intn(256)), rng.Intn(2) == 1, randBytes(rng, 512)
		checkRandomInput(t, i, func(t *testing.T) { checkLiveListOps(t, kind, pooled, ops) },
			"kind %d pooled %v ops %x", kind, pooled, ops)
	}
	t.Logf("%d inputs", inputs)
}

// randBytes returns up to max bytes from rng, the length uniform.
func randBytes(rng *rand.Rand, max int) []byte {
	b := make([]byte, rng.Intn(max+1))
	rng.Read(b)
	return b
}

// checkRandomInput runs check on generated input i and, if it fails, logs
// the input, described by format and args, before the test stops.
func checkRandomInput(t *testing.T, i int, check func(*testing.T), format string, args ...any) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Logf("failing input %d: "+format, append([]any{i}, args...)...)
		}
	}()
	check(t)
}
