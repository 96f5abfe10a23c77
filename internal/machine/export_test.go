package machine

// ReflectiveHashes reports how many HashValue calls so far fell back to
// hashing a payload's formatted form.
func ReflectiveHashes() uint64 { return reflectiveHashes.Load() }

// DeepClone is a clone that shares no queue storage with m: every non-empty
// buffer, pending queue and inbox gets a fresh backing array. It is the
// oracle the copy-on-write tests hold Clone and CloneInto against.
func DeepClone(m *Memory) *Memory {
	n := m.Clone()
	for i := range n.locs {
		l := &n.locs[i]
		l.val = cloneValue(l.val)
		l.buf = cloneValues(l.buf)
		l.pending = cloneValues(l.pending)
		l.inbox = cloneValues(l.inbox)
	}
	return n
}

// cloneValues deep-copies a value queue, returning nil for an empty one.
func cloneValues(vs []Value) []Value {
	if len(vs) == 0 {
		return nil
	}
	return append([]Value(nil), vs...)
}

// StaleHashTerms returns the locations whose cached fingerprint term
// differs from a fresh locHash128 of their contents.
func StaleHashTerms(m *Memory) []int {
	var stale []int
	for i := range m.locs {
		lo, hi := locHash128(i, &m.locs[i])
		if lo != m.locs[i].hlo || hi != m.locs[i].hhi {
			stale = append(stale, i)
		}
	}
	return stale
}

// BufferWrites reports how many l-buffer-writes location loc has absorbed.
func (m *Memory) BufferWrites(loc int) int {
	if loc < 0 || loc >= len(m.locs) {
		return 0
	}
	return m.locs[loc].writes
}

// PeekPending returns a copy of channel loc's pending queue in physical
// (send) order, without counting as a step.
func (m *Memory) PeekPending(loc int) []Value {
	if loc < 0 || loc >= len(m.locs) {
		return nil
	}
	return append([]Value(nil), m.locs[loc].pending...)
}

// PeekInbox returns a copy of channel loc's inbox in delivery order, without
// counting as a step.
func (m *Memory) PeekInbox(loc int) []Value {
	if loc < 0 || loc >= len(m.locs) {
		return nil
	}
	return append([]Value(nil), m.locs[loc].inbox...)
}
