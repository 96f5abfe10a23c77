package explore

// Disk-spilling frontier for the exploration walk. A worker's deque
// normally holds one live forked system per pending node; on wide trees
// (large n, no dedup) the frontier — not the seen table — is what outgrows
// RAM. With Options.SpillNodes set, whenever a worker's resident frontier
// exceeds the bound its oldest half (the nodes depth-first order visits
// last; the deque's steal end) is written to the worker's temp file as
// schedules — a few bytes per node instead of a full system — and the
// systems are closed back into the pool. Batches reload in LIFO order when
// the resident frontier drains, and a reloaded node lazily rematerializes
// its system by replaying its recorded schedule when first taken.
//
// With one worker, spilling the oldest half and reloading
// last-batch-first preserves the exact depth-first order, so a spilled
// run's Report is byte-identical to the unspilled one (the replay
// rematerialization reaches the identical configuration the closed fork
// held — the fork/replay equivalence the replay oracle battery pins). With
// several workers each owns one frontierSpill, guarded by the worker's
// spill mutex so idle peers can reload from it; there the Report is
// schedule-order-independent anyway (the exact (state, depth) claim rule),
// so spilling cannot change it either.

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
)

// frontierSpill owns the spill file and its batch directory. Batches are
// length-prefixed uvarint schedule lists, tracked LIFO.
type frontierSpill struct {
	f       *os.File
	off     int64 // next write offset
	batches []spillBatch
	spilled int64 // batches ever written (Report.Mem.SpilledBatches)
	buf     []byte
	sched   []int // one node's schedule while spill encodes it
}

type spillBatch struct {
	off   int64
	size  int64
	count int
}

func newFrontierSpill(dir string) (*frontierSpill, error) {
	f, err := os.CreateTemp(dir, "repro-frontier-*.spill")
	if err != nil {
		return nil, fmt.Errorf("explore: creating spill file: %w", err)
	}
	// The file only ever holds process schedules (small non-negative
	// integers), never protocol state, so no scrubbing is needed beyond
	// removal.
	return &frontierSpill{f: f}, nil
}

// spill appends one batch holding the schedules of nds, oldest first, each
// read off its parent chain into one reused scratch slice. Callers close the
// systems and release the nodes afterwards, which may recycle their
// ancestors: the spilled schedules no longer need the chains.
func (sp *frontierSpill) spill(nds []*treeNode) error {
	buf := sp.buf[:0]
	for _, nd := range nds {
		sp.sched = slices.Grow(sp.sched[:0], nd.depth)[:nd.depth]
		nd.fillSchedule(sp.sched)
		buf = binary.AppendUvarint(buf, uint64(nd.depth))
		for _, pid := range sp.sched {
			buf = binary.AppendUvarint(buf, uint64(pid))
		}
	}
	if _, err := sp.f.WriteAt(buf, sp.off); err != nil {
		return fmt.Errorf("explore: spilling frontier batch: %w", err)
	}
	sp.batches = append(sp.batches, spillBatch{off: sp.off, size: int64(len(buf)), count: len(nds)})
	sp.off += int64(len(buf))
	sp.spilled++
	sp.buf = buf[:0]
	return nil
}

// reload pops the most recent batch and decodes its schedules in stored
// (oldest-first) order, so pushing them back onto the empty deque restores
// the exact relative order they had before spilling. The schedules share
// one backing array sized for the batch.
func (sp *frontierSpill) reload() ([][]int, error) {
	n := len(sp.batches)
	if n == 0 {
		return nil, nil
	}
	b := sp.batches[n-1]
	sp.batches = sp.batches[:n-1]
	if cap(sp.buf) < int(b.size) {
		sp.buf = make([]byte, b.size)
	}
	buf := sp.buf[:b.size]
	if _, err := sp.f.ReadAt(buf, b.off); err != nil {
		return nil, fmt.Errorf("explore: reloading frontier batch: %w", err)
	}
	out := make([][]int, 0, b.count)
	// A length byte and a byte per entry at least: a well-formed batch fits.
	all := make([]int, 0, int(b.size)-b.count)
	for i := 0; i < b.count; i++ {
		slen, k := binary.Uvarint(buf)
		// Every schedule entry takes at least one byte, so a decoded length
		// exceeding the residual batch bytes proves corruption — reject it
		// here rather than letting make() allocate an attacker-sized slice
		// from a truncated or damaged file.
		if k <= 0 || slen > uint64(len(buf)-k) {
			return nil, fmt.Errorf("explore: corrupt spill batch at offset %d", b.off)
		}
		buf = buf[k:]
		start := len(all)
		for j := uint64(0); j < slen; j++ {
			pid, k := binary.Uvarint(buf)
			if k <= 0 {
				return nil, fmt.Errorf("explore: corrupt spill batch at offset %d", b.off)
			}
			buf = buf[k:]
			all = append(all, int(pid))
		}
		out = append(out, all[start:len(all):len(all)])
	}
	return out, nil
}

func (sp *frontierSpill) close() {
	if sp.f != nil {
		name := sp.f.Name()
		sp.f.Close()
		os.Remove(name)
		sp.f = nil
	}
}
