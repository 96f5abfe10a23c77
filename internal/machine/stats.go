package machine

// Stats instruments a Memory. The headline quantity for the paper is
// Footprint — the number of distinct locations ever touched — because the
// hierarchy classifies instruction sets by the number of locations needed to
// solve consensus. Steps and MaxBits feed the step-complexity and
// value-width ablations suggested by the paper's conclusion.
//
// Inside a Memory the counters accumulate into fixed arrays so that
// recording a step costs no map operation and no allocation; Stats()
// snapshots materialize the public PerOp map.
type Stats struct {
	// Steps counts atomic instruction applications (a multiple assignment
	// counts as one step, as in the model).
	Steps int64
	// PerLoc counts steps per location.
	PerLoc []int64
	// PerOp counts applications per instruction. Populated on Stats()
	// snapshots.
	PerOp map[Op]int64
	// MultiAssigns counts atomic multiple assignments.
	MultiAssigns int64
	// MaxBits is the largest bit-width any numeric location ever reached.
	MaxBits int

	// perOp is the allocation-free accumulator behind PerOp.
	perOp [numOps]int64
}

// record counts one applied instruction. It probes the location's width
// only where the value can have changed since the last probe: after a
// non-trivial instruction, or on the location's first touch (PerLoc was 0),
// which measures an initial value. A trivial instruction on a touched
// location reads a value already measured when it was written or first
// touched, so skipping it leaves MaxBits exact; CloneInto carries PerLoc
// and MaxBits together, so the rule holds across forks.
func (s *Stats) record(loc int, op Op, l *location) {
	s.Steps++
	s.perOp[op]++
	first := true
	if loc < len(s.PerLoc) {
		first = s.PerLoc[loc] == 0
		s.PerLoc[loc]++
	}
	if !first && op.Trivial() {
		return
	}
	if b := valueBits(l.val); b > s.MaxBits {
		s.MaxBits = b
	}
}

func (s *Stats) recordMulti(writes []Assignment, m *Memory) {
	s.Steps++
	s.MultiAssigns++
	for _, w := range writes {
		s.perOp[w.Op]++
		if w.Loc < len(s.PerLoc) {
			s.PerLoc[w.Loc]++
		}
		if b := valueBits(m.locs[w.Loc].val); b > s.MaxBits {
			s.MaxBits = b
		}
	}
}

// Footprint reports how many distinct locations were touched by at least one
// instruction. For bounded memories running the paper's algorithms this
// equals the algorithm's declared space; for unbounded memories it is the
// measured space consumption.
func (s Stats) Footprint() int {
	n := 0
	for _, c := range s.PerLoc {
		if c > 0 {
			n++
		}
	}
	return n
}

func (s Stats) clone() Stats {
	out := s
	out.PerLoc = append([]int64(nil), s.PerLoc...)
	out.PerOp = make(map[Op]int64, numOps)
	for op, c := range s.perOp {
		if c != 0 {
			out.PerOp[Op(op)] = c
		}
	}
	return out
}
