package sim

import (
	"context"
	"fmt"
	"sort"
)

// Result summarizes a run.
type Result struct {
	// Decisions maps process id to decided value.
	Decisions map[int]int
	// Undecided lists live processes that had not decided when the run
	// stopped (crashed processes are not listed).
	Undecided []int
	// Crashed lists crashed processes.
	Crashed []int
	// Steps is the total number of atomic steps executed.
	Steps int64
}

// Run drives the system under sched for at most maxSteps steps or until no
// live process remains. It returns the accumulated Result; process failures
// surface as an error. It is RunContext with a background context.
func (s *System) Run(sched Scheduler, maxSteps int64) (*Result, error) {
	return s.RunContext(context.Background(), sched, maxSteps)
}

// cancelCheckInterval gates the run loop's context poll: the context is
// checked on entry and then every min(cancelCheckInterval, remaining
// budget) steps, which keeps cancellation latency in the microseconds while
// costing the hot path one counter decrement per step. Bounding the burst
// by the remaining budget matters for short runs: a run with MaxSteps below
// the interval still re-polls when it exhausts its budget, so a stalled
// schedule under a cancelled context reports ctx.Err() instead of
// pretending the budget ran out first.
const cancelCheckInterval = 1 << 10

// RunContext is Run bounded by a context: a cancelled or expired ctx stops
// the run at the next poll boundary and returns ctx.Err(). A run that
// completes (no live process remains) returns its Result even if ctx was
// cancelled meanwhile; a run stopped by the step budget re-checks ctx
// first, so cancellation is never silently swallowed by a small budget.
// Everything else — scheduling, step accounting, error surfacing — is
// identical to Run, so a run that finishes before cancellation is
// byte-identical to an uncancellable one.
func (s *System) RunContext(ctx context.Context, sched Scheduler, maxSteps int64) (*Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		burst := maxSteps - s.steps
		if burst <= 0 {
			break
		}
		if burst > cancelCheckInterval {
			burst = cancelCheckInterval
		}
		for ; burst > 0; burst-- {
			pid := sched.Next(s)
			if pid < 0 {
				return s.Result(), s.Err()
			}
			if err := s.step(pid, nil); err != nil {
				return nil, err
			}
		}
	}
	return s.Result(), s.Err()
}

// Result snapshots the current outcome of the system.
func (s *System) Result() *Result {
	r := &Result{Decisions: make(map[int]int), Steps: s.steps}
	for i, ps := range s.procs {
		switch {
		case ps.decided:
			r.Decisions[i] = ps.decision
		case ps.crashed:
			r.Crashed = append(r.Crashed, i)
		case ps.err == nil:
			r.Undecided = append(r.Undecided, i)
		}
	}
	return r
}

// AgreedValue returns the common decision if at least one process decided
// and all decisions agree.
func (r *Result) AgreedValue() (int, bool) {
	first := true
	var v int
	for _, d := range r.Decisions {
		if first {
			v, first = d, false
		} else if d != v {
			return 0, false
		}
	}
	return v, !first
}

// CheckConsensus verifies the two safety properties of consensus against the
// run: agreement (all decisions equal) and validity (every decision is some
// process's input). It returns nil when both hold.
func (r *Result) CheckConsensus(inputs []int) error {
	valid := make(map[int]bool, len(inputs))
	for _, in := range inputs {
		valid[in] = true
	}
	var pids []int
	for pid := range r.Decisions {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var agreed int
	for i, pid := range pids {
		d := r.Decisions[pid]
		if !valid[d] {
			return fmt.Errorf("validity violated: process %d decided %d, not an input %v",
				pid, d, inputs)
		}
		if i == 0 {
			agreed = d
		} else if d != agreed {
			return fmt.Errorf("agreement violated: process %d decided %d, process %d decided %d",
				pids[0], agreed, pid, d)
		}
	}
	return nil
}

// String renders the result compactly.
func (r *Result) String() string {
	return fmt.Sprintf("decisions=%v undecided=%v crashed=%v steps=%d",
		r.Decisions, r.Undecided, r.Crashed, r.Steps)
}
