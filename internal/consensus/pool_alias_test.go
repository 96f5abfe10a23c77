package consensus

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestPooledForkIntoNoAliasing pins the pooling contract of the steppers
// whose state aliases memory payloads (the swap lap vectors, the register
// and history payloads): a fork rebuilt through ForkInto over a recycled
// stepper of the same type, taken mid-collect, mid-swap or mid-append, must
// behave exactly like a fresh unforked run — its own and its source's
// traces both — while the two run interleaved under different schedules,
// and no payload ever written may change its hash afterwards. A recycled
// buffer that is also a published payload, or that a live fork still
// reads, breaks one or the other (the shape of the max-register a2 bug).
func TestPooledForkIntoNoAliasing(t *testing.T) {
	isRead := func(op machine.Op) bool { return op == machine.OpRead || op == machine.OpBufferRead }
	// A read poised at a location >= 1 is a collect's second read or later
	// (pid 0's own register, buffer or track 0 is location 0).
	midCollect := func(op, _ sim.OpInfo) bool { return isRead(op.Op) && op.Loc >= 1 }
	cases := []struct {
		name   string
		build  func() *Protocol
		inputs []int
		at     func(op, last sim.OpInfo) bool // pid 0's poised and last executed instruction
	}{
		// A track read after a track read is a scan past its first read.
		{"tas-tracks/mid-collect", func() *Protocol { return TASTracks(3) }, []int{0, 1, 2},
			func(op, last sim.OpInfo) bool { return isRead(op.Op) && isRead(last.Op) }},
		{"registers/mid-collect", func() *Protocol { return Registers(3) }, []int{0, 1, 2}, midCollect},
		{"registers/mid-write", func() *Protocol { return Registers(3) }, []int{2, 1, 0},
			func(op, _ sim.OpInfo) bool { return op.Op == machine.OpWrite }},
		{"swap/mid-collect", func() *Protocol { return Swap(3) }, []int{0, 1, 2}, midCollect},
		{"swap/mid-swap", func() *Protocol { return Swap(3) }, []int{2, 0, 1},
			func(op, _ sim.OpInfo) bool { return op.Op == machine.OpSwap }},
		{"buffers/mid-collect", func() *Protocol { return Buffered(3, 2) }, []int{0, 1, 2}, midCollect},
		{"buffers/mid-append", func() *Protocol { return Buffered(3, 2) }, []int{1, 2, 0},
			func(op, _ sim.OpInfo) bool { return op.Op == machine.OpBufferWrite }},
		{"buffers-multi-assign/mid-append", func() *Protocol { return BufferedMultiAssign(3, 1) }, []int{2, 0, 1},
			func(op, _ sim.OpInfo) bool { return op.Op == machine.OpBufferWrite }},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				checkPooledFork(t, tc.build, tc.inputs, seed, tc.at)
			})
		}
	}
}

// payloadLog records every payload written, with its hash at write time.
type payloadLog struct {
	vals   []machine.Value
	hashes []uint64
}

func (l *payloadLog) note(st sim.StepInfo) {
	switch st.Info.Op {
	case machine.OpWrite, machine.OpSwap, machine.OpBufferWrite:
		for _, a := range st.Info.Args {
			l.vals = append(l.vals, a)
			l.hashes = append(l.hashes, machine.HashValue(a))
		}
	}
}

func (l *payloadLog) check(t *testing.T) {
	t.Helper()
	for i, v := range l.vals {
		if h := machine.HashValue(v); h != l.hashes[i] {
			t.Fatalf("payload %d changed after it was written: %+v", i, v)
		}
	}
}

func checkPooledFork(t *testing.T, build func() *Protocol, inputs []int, seed int64, at func(op, last sim.OpInfo) bool) {
	const minPrefix = 12
	pr := build()
	root := sim.NewSystemSteppers(pr.NewMemory(), inputs, pr.Steppers(inputs), sim.WithTrace())
	defer root.Close()
	pool := new(sim.Pool)
	root.SetPool(pool)
	var log payloadLog
	var prefix []int
	var last sim.OpInfo
	sched := sim.NewRandom(seed)
	for {
		if op, ok := root.Poised(0); ok && len(prefix) >= minPrefix && at(op, last) {
			break
		}
		pid := sched.Next(root)
		if pid < 0 || len(prefix) > 5000 {
			t.Skip("no fork point on this schedule")
		}
		st, err := root.Step(pid)
		if err != nil {
			t.Fatal(err)
		}
		log.note(st)
		prefix = append(prefix, pid)
		if pid == 0 {
			last = st.Info
		}
	}

	// Recycle: a fork driven elsewhere and closed parks its live steppers in
	// the pool, and the next fork is rebuilt over them through ForkInto.
	warm, err := root.Fork()
	if err != nil {
		t.Fatal(err)
	}
	drive(t, warm, sim.NewRandom(seed+100), 20, &log)
	warm.Close()
	fk, err := root.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer fk.Close()

	// Run source and fork interleaved, one step each, under different
	// schedules.
	sa, sb := sim.NewRandom(seed+1), sim.NewRandom(seed+2)
	for doneA, doneB := false, false; !doneA || !doneB; {
		if !doneA {
			doneA = !drive(t, root, sa, 1, &log)
		}
		if !doneB {
			doneB = !drive(t, fk, sb, 1, &log)
		}
	}
	log.check(t)

	for _, c := range []struct {
		sys  *sim.System
		seed int64
	}{{root, seed + 1}, {fk, seed + 2}} {
		ref := build()
		fresh := sim.NewSystemSteppers(ref.NewMemory(), inputs, ref.Steppers(inputs), sim.WithTrace())
		for _, pid := range prefix {
			if _, err := fresh.Step(pid); err != nil {
				t.Fatal(err)
			}
		}
		drive(t, fresh, sim.NewRandom(c.seed), 1_000_000, nil)
		got, want := c.sys.Trace(), fresh.Trace()
		if len(got) != len(want) {
			t.Fatalf("trace lengths %d vs fresh %d", len(got), len(want))
		}
		for i := range want {
			if g, w := stepString(got[i]), stepString(want[i]); g != w {
				t.Fatalf("step %d: %s, fresh run %s", i, g, w)
			}
		}
		if !slices.Equal(decisionVector(c.sys), decisionVector(fresh)) {
			t.Fatalf("decisions %v, fresh run %v", c.sys.Decisions(), fresh.Decisions())
		}
		if g, w := c.sys.Mem().Fingerprint(), fresh.Mem().Fingerprint(); g != w {
			t.Fatal("final memory differs from the fresh run's")
		}
		fresh.Close()
	}
}

// drive steps sys under sched for at most n steps, noting written payloads
// in log when non-nil; it reports whether a live process remains.
func drive(t *testing.T, sys *sim.System, sched sim.Scheduler, n int, log *payloadLog) bool {
	t.Helper()
	for i := 0; i < n; i++ {
		pid := sched.Next(sys)
		if pid < 0 {
			return false
		}
		st, err := sys.Step(pid)
		if err != nil {
			t.Fatal(err)
		}
		if log != nil {
			log.note(st)
		}
	}
	return len(sys.LiveSet()) > 0
}

func decisionVector(sys *sim.System) []int {
	d := make([]int, sys.N())
	for pid := range d {
		v, ok := sys.Decided(pid)
		if !ok {
			v = -1
		}
		d[pid] = v
	}
	return d
}
