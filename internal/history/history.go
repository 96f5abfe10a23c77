// Package history implements Lemma 6.1 of the paper: a single l-buffer
// simulates a history object — an object supporting append(x) and
// get-history() — on which at most l different processes may append and any
// number may read. History objects are universal (the state of any object is
// the history of non-trivial operations applied to it), which is how
// Theorem 6.3 squeezes n single-writer registers into ceil(n/l) buffers.
package history

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Entry is one appended value. Appends are made unique by tagging them with
// the appender's id and a per-appender sequence number, exactly as the proof
// of Lemma 6.1 prescribes.
type Entry struct {
	PID int
	Seq int64
	Val any
}

func (e Entry) String() string { return fmt.Sprintf("%d.%d:%v", e.PID, e.Seq, e.Val) }

func (e Entry) sameID(o Entry) bool { return e.PID == o.PID && e.Seq == o.Seq }

// record is what each append buffer-writes: the appender's view of the
// history so far, plus the new entry.
type record struct {
	hist  []Entry
	entry Entry
}

// Tags keep the payload hashes apart from each other and from the numeric
// value hashes.
const (
	recordTag  = 0x686973746f7279 // "history"
	slottedTag = 0x736c6f74746564 // "slotted"
)

// Hash64 implements machine.Hashable. Records sit in every l-buffer slot
// and in every buffer-read result, so the memory fingerprint and the
// adapters' history keys hash one per step; the reflective fallback would
// format the whole carried history each time. The hash covers the carried
// history's length, then the PID, Seq and value hash of every carried
// entry and of the new one, so payloads equal under machine.EqualValues
// hash equal.
func (r record) Hash64() uint64 {
	h := machine.Mix64(recordTag ^ uint64(len(r.hist)))
	for _, e := range r.hist {
		h = e.fold(h)
	}
	return r.entry.fold(h)
}

// fold absorbs the entry's identity and value into a running hash.
func (e Entry) fold(h uint64) uint64 {
	h = machine.Mix64(h ^ uint64(e.PID))
	h = machine.Mix64(h ^ uint64(e.Seq))
	return machine.Mix64(h ^ machine.HashValue(e.Val))
}

// History is one process's handle on the simulated history object backed by
// the l-buffer at location loc. At most l distinct processes may call
// Append over the object's lifetime; any number may call GetHistory.
type History struct {
	p   *sim.Proc
	loc int
	seq int64
}

// New returns process p's handle on the history object at location loc.
func New(p *sim.Proc, loc int) *History {
	return &History{p: p, loc: loc}
}

// Append appends val to the history: one get-history plus one atomic
// l-buffer-write (the linearization point). It returns the identity of the
// appended entry so callers can locate it in later histories.
func (h *History) Append(val any) Entry {
	hist := h.GetHistory()
	h.seq++
	e := Entry{PID: h.p.ID(), Seq: h.seq, Val: val}
	h.p.Apply(h.loc, machine.OpBufferWrite, record{hist: hist, entry: e})
	return e
}

// SameEntry reports whether two entries are the same append (identity is
// the appender id plus its sequence number).
func SameEntry(a, b Entry) bool { return a.sameID(b) }

// GetHistory returns the sequence of all values appended so far, least
// recent first: one atomic l-buffer-read (the linearization point), then the
// local reconstruction of Lemma 6.1.
func (h *History) GetHistory() []Entry {
	raw := h.p.Apply(h.loc, machine.OpBufferRead).([]machine.Value)
	return Reconstruct(raw)
}

// Reconstruct rebuilds the full history from the result of one
// l-buffer-read, following the case analysis in the proof of Lemma 6.1.
// It is exported for the white-box tests that replay Figure 1.
func Reconstruct(raw []machine.Value) []Entry {
	// Collect the non-nil suffix: the inputs of the at most l most recent
	// buffer-writes, oldest first.
	var recs []record
	for _, v := range raw {
		if v == nil {
			continue
		}
		recs = append(recs, v.(record))
	}
	if len(recs) == 0 {
		// No append has been linearized.
		return nil
	}
	l := len(raw)
	tail := make([]Entry, len(recs))
	for i, r := range recs {
		tail[i] = r.entry
	}
	if len(recs) < l {
		// Fewer than l appends ever happened; the tail is the full history.
		return tail
	}
	// l or more appends happened. Let h be the longest history among the
	// carried ones.
	var longest []Entry
	for _, r := range recs {
		if len(r.hist) >= len(longest) {
			longest = r.hist
		}
	}
	x1 := tail[0]
	for i, e := range longest {
		if e.sameID(x1) {
			// h contains x1: everything before x1 in h, then the tail.
			return append(append([]Entry{}, longest[:i]...), tail...)
		}
	}
	// h does not contain x1: the l writers were concurrent (Figure 1), and
	// h holds everything appended before x1.
	return append(append([]Entry{}, longest...), tail...)
}

// Registers adapts one history object into l single-writer registers
// (Lemma 6.2): register slots are keyed by writer id; writing appends a
// (slot, value) pair, and reading slot i finds the most recent pair with
// first component i.
type Registers struct {
	h *History
}

// NewRegisters returns process p's handle on the register array simulated by
// the history object at location loc.
func NewRegisters(p *sim.Proc, loc int) *Registers {
	return &Registers{h: New(p, loc)}
}

// slotted is a (slot, value) pair appended to the history.
type slotted struct {
	slot int
	val  any
}

// Hash64 implements machine.Hashable for the entries record.Hash64 folds.
func (s slotted) Hash64() uint64 {
	h := machine.Mix64(slottedTag ^ uint64(s.slot))
	return machine.Mix64(h ^ machine.HashValue(s.val))
}

// Write writes val to register slot: one append.
func (r *Registers) Write(slot int, val any) {
	r.h.Append(slotted{slot: slot, val: val})
}

// ReadAll returns the newest value of every requested slot (nil when never
// written) along with a version fingerprint suitable for double collects:
// "[v0 v1 ...]", each vi "pid.seq" of the slot's newest entry or "-". It
// costs a single atomic l-buffer-read.
func (r *Registers) ReadAll(slots []int) ([]any, string) {
	hist := r.h.GetHistory()
	vals := make([]any, len(slots))
	newest := make([]*Entry, len(slots))
	for j := range hist {
		sl := hist[j].Val.(slotted)
		if i := slices.Index(slots, sl.slot); i >= 0 {
			vals[i] = sl.val
			newest[i] = &hist[j]
		}
	}
	fp := make([]byte, 0, 2+8*len(slots))
	fp = append(fp, '[')
	for i, e := range newest {
		if i > 0 {
			fp = append(fp, ' ')
		}
		if e == nil {
			fp = append(fp, '-')
			continue
		}
		fp = strconv.AppendInt(fp, int64(e.PID), 10)
		fp = append(fp, '.')
		fp = strconv.AppendInt(fp, e.Seq, 10)
	}
	return vals, string(append(fp, ']'))
}

// The two functions below are the instruction-level form of Registers, for
// the forkable register-array machine (swreg.Machine): the payload types
// stay private to this package, so the package builds the append's
// buffer-write payload and decodes buffer-read results itself.

// AppendSlotArgs is the argument of the buffer-write that completes
// Registers.Write(slot, val) by process pid, given the raw result of the
// append's get-history read and the appender's sequence number for the new
// entry. The payload is the one Append writes: the reconstructed history
// plus the new entry.
func AppendSlotArgs(raw []machine.Value, pid int, seq int64, slot int, val any) []machine.Value {
	e := Entry{PID: pid, Seq: seq, Val: slotted{slot: slot, val: val}}
	return []machine.Value{record{hist: Reconstruct(raw), entry: e}}
}

// NewestSlots decodes one l-buffer-read into the newest entry of each
// register slot lo..lo+len(seqs)-1, exactly as Registers.ReadAll would find
// it in the reconstructed history: seqs[i] is the entry's sequence number,
// 0 when the slot was never written, and visit(i, val) is called once for
// every written slot i with its value, newest entry first. It walks the
// history newest first without materializing it — the buffer's records,
// then the carried history Reconstruct would prefix them with — and stops
// once every slot is resolved. A slot is written only by the process it
// belongs to, so the sequence number alone versions it.
func NewestSlots(raw []machine.Value, lo int, seqs []int64, visit func(i int, val any)) {
	clear(seqs)
	left := len(seqs)
	resolve := func(e *Entry) {
		sl := e.Val.(slotted)
		if i := sl.slot - lo; i >= 0 && i < len(seqs) && seqs[i] == 0 {
			seqs[i] = e.Seq
			visit(i, sl.val)
			left--
		}
	}
	// The records, newest first. Along the way, note what Reconstruct
	// needs for the prefix: the record count, the oldest record, and the
	// longest carried history (the newest among equally long ones, as
	// Reconstruct's forward scan keeps the last).
	nrec, first := 0, -1
	var longest []Entry
	for i := len(raw) - 1; i >= 0; i-- {
		if raw[i] == nil {
			continue
		}
		r := raw[i].(record)
		if left > 0 {
			resolve(&r.entry)
			if left == 0 {
				return
			}
		}
		if first < 0 || len(r.hist) > len(longest) {
			longest = r.hist
		}
		nrec, first = nrec+1, i
	}
	if nrec == 0 || nrec < len(raw) {
		// Fewer than l appends ever happened: the records are the history.
		return
	}
	x1 := raw[first].(record).entry
	cut := len(longest)
	for i := range longest {
		if longest[i].sameID(x1) {
			cut = i
			break
		}
	}
	for i := cut - 1; i >= 0 && left > 0; i-- {
		resolve(&longest[i])
	}
}
