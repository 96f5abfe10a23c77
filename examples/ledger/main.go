// Replicated-ledger commit over l-buffer memory.
//
// Five replicas of a ledger each receive a candidate batch of transactions
// and must commit the same batch. The shared medium is a memory of
// 2-buffers — each location remembers the two most recent writes, the
// Section 6 instruction set B_l — so ceil(5/2) = 3 locations suffice
// (Theorem 6.3), instead of the 5 plain registers would need.
//
// The example also exercises the Section 7 extension: after the batch is
// chosen, a replica publishes the decision to both an index location and an
// audit location atomically with one multiple assignment (the paper's
// "simple transaction").
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/consensus"
	"repro/internal/machine"
	"repro/internal/sim"
)

const (
	replicas  = 5
	bufferCap = 2
)

func run(ctx context.Context, w io.Writer) error {
	batches := []string{
		"batch-a: 12 transfers",
		"batch-b: 7 transfers",
		"batch-c: 31 transfers",
		"batch-d: 2 transfers",
		"batch-e: 19 transfers",
	}
	// Each replica proposes the batch it received (its own index).
	proposals := make([]int, replicas)
	for i := range proposals {
		proposals[i] = i
	}

	pr := consensus.BufferedMultiAssign(replicas, bufferCap)
	// Two extra locations for the atomic publish step: a commit index and
	// an audit log, written together by one multiple assignment.
	consensusLocs := pr.Locations
	pr.Locations += 2
	indexLoc, auditLoc := consensusLocs, consensusLocs+1

	// Each replica runs its consensus stepper, then publishes the decision.
	inner := pr.Steppers
	pr.Steppers = func(inputs []int) []sim.Stepper {
		steppers := inner(inputs)
		for id, st := range steppers {
			steppers[id] = &publisher{inner: st, id: id, indexLoc: indexLoc, auditLoc: auditLoc}
		}
		return steppers
	}

	fmt.Fprintf(w, "committing one of %d batches across %d replicas over %s\n",
		len(batches), replicas, pr.Set)
	fmt.Fprintf(w, "consensus uses %d 2-buffer locations (ceil(n/l); plain registers would need %d)\n",
		consensusLocs, replicas)

	// The compiled handle for the same row documents why: the paper bounds
	// SP for l-buffers with multiple assignment between ceil((n-1)/2l) and
	// ceil(n/l).
	handle, err := repro.Compile("T1.MA", replicas, repro.BufferCap(bufferCap))
	if err != nil {
		return err
	}
	lo, up := handle.Bounds()
	fmt.Fprintf(w, "paper bounds for this instruction set at n=%d: [%d, %d]\n", replicas, lo, up)

	sys, err := pr.NewSystem(proposals)
	if err != nil {
		return err
	}
	defer sys.Close()
	res, err := sys.RunContext(ctx, sim.NewRandom(99), 10_000_000)
	if err != nil {
		return err
	}
	if err := res.CheckConsensus(proposals); err != nil {
		return fmt.Errorf("ledger diverged: %w", err)
	}
	batch, _ := res.AgreedValue()
	fmt.Fprintf(w, "committed: %s\n", batches[batch])

	// The audit location holds the last two publishes (it is a 2-buffer).
	for _, v := range sys.Mem().PeekBuffer(auditLoc) {
		fmt.Fprintf(w, "audit: %v\n", v)
	}
	st := sys.Mem().Stats()
	fmt.Fprintf(w, "%d locations touched, %d steps, %d atomic multiple assignments\n",
		st.Footprint(), st.Steps, st.MultiAssigns)
	return nil
}

// publisher runs one replica's consensus stepper to its decision, then
// publishes the decided batch to the index and the audit log atomically with
// one multiple assignment — a simple transaction in the paper's Section 7
// sense — and finishes with the batch.
type publisher struct {
	inner              sim.Stepper
	id                 int
	indexLoc, auditLoc int
	publish            sim.OpInfo // the multiple assignment, once poised
	done               bool
	batch              int
	err                error
}

func (s *publisher) Poise() *sim.OpInfo {
	switch {
	case s.done:
		return nil
	case s.publish.Multi != nil:
		return &s.publish
	}
	return s.inner.Poise()
}

func (s *publisher) Resume(res machine.Value) bool {
	if s.publish.Multi != nil {
		s.done = true
		return true
	}
	if !s.inner.Resume(res) {
		return false
	}
	decided, batch, err := s.inner.Outcome()
	if !decided || err != nil {
		s.done, s.err = true, err
		return true
	}
	s.batch = batch
	s.publish.Multi = []machine.Assignment{
		{Loc: s.indexLoc, Op: machine.OpBufferWrite, Args: []machine.Value{batch}},
		{Loc: s.auditLoc, Op: machine.OpBufferWrite,
			Args: []machine.Value{fmt.Sprintf("replica %d commits %d", s.id, batch)}},
	}
	return false
}

func (s *publisher) Outcome() (bool, int, error) { return s.done && s.err == nil, s.batch, s.err }
func (s *publisher) Halt()                       { s.inner.Halt() }

func main() {
	log.SetFlags(0)
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}
