package sim

import (
	"math/bits"
	"math/rand"
)

// Scheduler chooses which live process takes the next step. Implementations
// model the paper's adversary. Next returns a live process id, or -1 to stop
// the run.
type Scheduler interface {
	Next(s *System) int
}

// RoundRobin cycles through live pids in id order, starting at 0. On
// message-passing systems the cycle covers the virtual delivery pids too —
// the network is one more fairly-scheduled participant, so pending messages
// are delivered in rotation instead of starving the receivers.
type RoundRobin struct {
	next int
}

// Next returns the next live pid at or after the cursor.
func (r *RoundRobin) Next(s *System) int {
	n := s.MaxPid()
	for i := 0; i < n; i++ {
		pid := (r.next + i) % n
		if s.Live(pid) {
			r.next = (pid + 1) % n
			return pid
		}
	}
	return -1
}

// Random schedules live processes uniformly at random from a seeded
// generator, modelling an unpredictable adversary; runs are reproducible per
// seed. The generator is splitmix64 — scheduling quality needs no more, and
// constructing one costs a single word, where seeding a math/rand source
// (607 words of state) used to dominate short seeded runs: the batch runner
// builds one scheduler per run.
type Random struct {
	state uint64
	buf   []int // channel systems' filtered live set, reused across steps
}

// NewRandom returns a Random scheduler with the given seed. Schedules are a
// deterministic function of the seed, but not stable across releases (the
// underlying generator may change, as it has before).
func NewRandom(seed int64) *Random {
	return &Random{state: uint64(seed)}
}

// next64 is one splitmix64 step (Steele et al., "Fast splittable
// pseudorandom number generators"): a Weyl sequence increment followed by a
// finalizing mix, so even adjacent integer seeds give uncorrelated streams.
func (r *Random) next64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n) by Lemire's nearly-divisionless
// bounded sampling: a 64x64->128 multiply in the common case, with the
// modulo-computing rejection loop entered only when the low word lands in
// the biased window (probability n/2^64).
func (r *Random) intn(n int) int {
	un := uint64(n)
	hi, lo := bits.Mul64(r.next64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.next64(), un)
		}
	}
	return int(hi)
}

// Next picks a live process uniformly at random. On a shared-memory system
// it draws straight from the system's live list: one draw and one index, no
// copy and no scan over the processes that have finished. A channel system
// first filters its live list and adds the enabled delivery branches into a
// reused buffer (System.AppendLive). Either way the pick is AppendLive's
// entry at the drawn index, so the two paths choose the same pid from the
// same generator state.
func (r *Random) Next(s *System) int {
	live := s.live
	if s.hasChans() {
		r.buf = s.AppendLive(r.buf[:0])
		live = r.buf
	}
	if len(live) == 0 {
		return -1
	}
	return live[r.intn(len(live))]
}

// Solo runs a single process exclusively: the paper's solo execution, the
// core of obstruction-freedom.
type Solo struct {
	PID int
}

// Next returns PID while it is live.
func (so Solo) Next(s *System) int {
	if s.Live(so.PID) {
		return so.PID
	}
	return -1
}

// Script replays an explicit sequence of process ids, skipping entries whose
// process is no longer live. It is how proof-specific adversary schedules
// are expressed.
type Script struct {
	PIDs []int
	pos  int
}

// Next returns the next live scripted pid, or -1 when exhausted.
func (sc *Script) Next(s *System) int {
	for sc.pos < len(sc.PIDs) {
		pid := sc.PIDs[sc.pos]
		sc.pos++
		if s.Live(pid) {
			return pid
		}
	}
	return -1
}

// RandomCrash wraps another scheduler and crashes each process independently
// with the given probability checked before every step, exercising the
// model's crash failures. At least one process is always left alive.
type RandomCrash struct {
	Inner Scheduler
	P     float64
	rng   *rand.Rand
	buf   []int
}

// NewRandomCrash builds a crash-injecting wrapper around inner.
func NewRandomCrash(inner Scheduler, p float64, seed int64) *RandomCrash {
	return &RandomCrash{Inner: inner, P: p, rng: rand.New(rand.NewSource(seed))}
}

// Next possibly crashes a random live process, then delegates.
func (rc *RandomCrash) Next(s *System) int {
	rc.buf = s.AppendLive(rc.buf[:0])
	if len(rc.buf) > 1 && rc.rng.Float64() < rc.P {
		s.Crash(rc.buf[rc.rng.Intn(len(rc.buf))])
	}
	return rc.Inner.Next(s)
}

// RandomThenSolo runs Prefix random steps and then one randomly chosen
// survivor exclusively. Repeating it from fresh systems samples the
// obstruction-freedom property: from every reachable configuration a solo
// execution must decide.
type RandomThenSolo struct {
	Prefix int
	rng    *rand.Rand
	solo   int // -1 until the solo phase starts
	taken  int
	buf    []int
}

// NewRandomThenSolo builds the driver with the given prefix length and seed.
func NewRandomThenSolo(prefix int, seed int64) *RandomThenSolo {
	return &RandomThenSolo{Prefix: prefix, rng: rand.New(rand.NewSource(seed)), solo: -1}
}

// Next schedules randomly for Prefix steps, then fixes one live process.
func (rs *RandomThenSolo) Next(s *System) int {
	rs.buf = s.AppendLive(rs.buf[:0])
	live := rs.buf
	if len(live) == 0 {
		return -1
	}
	if rs.taken < rs.Prefix {
		rs.taken++
		return live[rs.rng.Intn(len(live))]
	}
	if rs.solo < 0 || !s.Live(rs.solo) {
		rs.solo = live[rs.rng.Intn(len(live))]
	}
	return rs.solo
}
