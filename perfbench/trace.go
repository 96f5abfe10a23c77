package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a public-layer call. A tight loop
// of identical calls (a run's steps, a replayed instruction stream) is one
// span whose count says how many calls it covers.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Op     int64  `json:"op"`     // operation ID shared by an operation's spans
	Count  int64  `json:"count"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is safe for concurrent use, so spans from parallel workers can share
// a parent.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span now and returns its ID. A nil tracer records nothing.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	return t.beginAt(name, time.Now(), parent, op)
}

// beginAt opens a span that started at start.
func (t *tracer) beginAt(name string, start time.Time, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	at := int64(start.Sub(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: at, End: -1, Parent: parent, Op: op, Count: 1})
	t.mu.Unlock()
	return id
}

// end closes span id, recording how many calls it covered.
func (t *tracer) end(id int32, count int64) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End, t.spans[id].Count = now, count
	t.mu.Unlock()
}

// add records a span that began at start and ends now.
func (t *tracer) add(name string, start time.Time, parent int32, op, count int64) {
	if t == nil {
		return
	}
	sp := span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch)), Parent: parent, Op: op, Count: count}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children covers. Children of one
// parent may overlap — parallel workers under one call — so they are
// merged as intervals, never summed.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, spans, kids[int32(i)])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, spans []span, children []int32) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(spans[c].Start, parent.Start), min(spans[c].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanStat aggregates one span name: calls covered and self nanoseconds.
type spanStat struct {
	spans, calls int64
	selfNs       int64
	totalNs      int64
}

// byName aggregates self and total time per span name.
func byName(spans []span) map[string]*spanStat {
	self := selfTimes(spans)
	out := make(map[string]*spanStat)
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.spans++
		st.calls += s.Count
		st.selfNs += self[i]
		st.totalNs += s.End - s.Start
	}
	return out
}

// nsPerCall is a name's self time per covered call.
func (st *spanStat) nsPerCall() float64 {
	if st == nil || st.calls == 0 {
		return 0
	}
	return float64(st.selfNs) / float64(st.calls)
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
