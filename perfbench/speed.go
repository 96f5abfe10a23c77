package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// The host's speed is not constant. Its vCPUs are shared, and over tens of
// seconds the same fixed piece of Go code runs up to 1.8 times faster or
// slower on it, on both vCPUs at once. That shift is common to all code;
// a run cannot tell it from a change in the program by timing the program
// alone. So the timed loops interleave a reference job, fixed code of the
// benchmark's own that the program never touches, and the end-to-end
// figures are each operation's CPU time scaled by how fast the reference
// job ran in the same second: the time the operation would take on the
// reference host at the reference job's nominal speed. The raw figures are
// printed beside them.

// refJobNominal is the reference job's median CPU time on the reference
// host (Intel Xeon, 2 vCPUs, Go 1.24.0, GOMAXPROCS=1). It fixes the scale
// of the adjusted figures and nothing else.
const refJobNominal = 500 * time.Microsecond

// refEvery is how often, in wall time, a loop runs the reference job
// between two operations: about 2% of the run.
const refEvery = 25 * time.Millisecond

// refWindow is the slice of the run over which the reference job's median
// sets the scale of the operations run in it.
const refWindow = time.Second

// refRecord is the shape the reference job encodes and decodes.
type refRecord struct {
	Name  string
	Vals  []int
	Tags  map[string]int
	Pairs []struct{ A, B int }
}

var (
	refRecords = func() []refRecord {
		var rs []refRecord
		for i := 0; i < 6; i++ {
			r := refRecord{Name: fmt.Sprintf("rec-%d-%x", i, i*977), Tags: map[string]int{}}
			for j := 0; j < 12; j++ {
				r.Vals = append(r.Vals, (i*31+j*17)%101)
				r.Tags[fmt.Sprint("t", j)] = j
				r.Pairs = append(r.Pairs, struct{ A, B int }{i, j})
			}
			rs = append(rs, r)
		}
		return rs
	}()
	refMap    = map[string]int{}
	refKey    []byte
	refInts   = make([]int, 2048)
	refSorted = make([]int, 2048)
	refSink   int
)

// refJob is the reference job: the kinds of work the program's own hot
// paths do — reflection-driven encoding, formatting, map inserts, small
// allocations and a sort — in a fixed amount.
func refJob() {
	b, err := json.Marshal(refRecords)
	if err != nil {
		panic(err)
	}
	var back []refRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	clear(refMap)
	for i := 0; i < 128; i++ {
		refKey = fmt.Appendf(refKey[:0], "k-%d-%x", i, i*7919)
		refMap[string(refKey)] += i
	}
	for i := range refInts {
		refInts[i] = (i * 2654435761) % 10007
	}
	copy(refSorted, refInts)
	sort.Ints(refSorted)
	refSink += len(back) + len(refMap) + refSorted[7]
}

// speedProbe runs the reference job every refEvery and records when it ran
// and the CPU time it took.
type speedProbe struct {
	start time.Time
	last  time.Time
	at    []time.Duration // offset of each run of the job from start
	cost  []time.Duration // its CPU time
}

func newSpeedProbe(start time.Time) *speedProbe {
	return &speedProbe{start: start}
}

// maybe runs the job if refEvery has passed since it last ran.
func (p *speedProbe) maybe() {
	now := time.Now()
	if now.Sub(p.last) < refEvery {
		return
	}
	c0 := cpuNow()
	refJob()
	p.cost = append(p.cost, cpuNow()-c0)
	p.at = append(p.at, now.Sub(p.start))
	p.last = time.Now()
}

// refSpeed runs the reference job n times and returns refJobNominal over
// its median CPU time: above 1 when the host runs faster than the
// reference host did.
func refSpeed(n int) float64 {
	costs := make([]float64, n)
	for i := range costs {
		c0 := cpuNow()
		refJob()
		costs[i] = float64(cpuNow() - c0)
	}
	return float64(refJobNominal) / median(costs)
}

// median is the job's median CPU time over the whole run.
func (p *speedProbe) median() time.Duration {
	return time.Duration(median(durations(p.cost)))
}

// adjust scales each operation's CPU time, run at the given offset from
// start, by refJobNominal over the job's median CPU time in the same
// refWindow; a window in which the job never ran takes the run's median.
func (p *speedProbe) adjust(cpu, at []time.Duration) []time.Duration {
	if len(p.cost) == 0 {
		return cpu
	}
	whole := p.median()
	var byWindow [][]float64
	for i, a := range p.at {
		w := int(a / refWindow)
		for len(byWindow) <= w {
			byWindow = append(byWindow, nil)
		}
		byWindow[w] = append(byWindow[w], float64(p.cost[i]))
	}
	scale := func(a time.Duration) float64 {
		w := int(a / refWindow)
		if w < len(byWindow) && len(byWindow[w]) > 0 {
			return float64(refJobNominal) / median(byWindow[w])
		}
		return float64(refJobNominal) / float64(whole)
	}
	out := make([]time.Duration, len(cpu))
	for i, c := range cpu {
		out[i] = time.Duration(float64(c) * scale(at[i]))
	}
	return out
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}
