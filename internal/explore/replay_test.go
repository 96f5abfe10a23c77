package explore

import (
	"context"
	"slices"
	"testing"

	"repro/internal/sim"
)

// exhaustiveReplay is the pre-fork explorer, kept as a test oracle: each
// configuration is materialized by re-executing its schedule prefix on a
// fresh system, recursively in depth-first order. It claims through the
// walk's own tables, so its Report must equal the one-worker walk's byte
// for byte (Mem aside). That differential pins fork/replay equivalence,
// which the walk's spill rematerialization relies on.
func exhaustiveReplay(ctx context.Context, f Factory, opts Options) (*Report, error) {
	seen := newClaimer(opts, false)
	var ks sim.SymScratch
	rep := &Report{}
	decided := map[int]struct{}{}
	var inputs []int
	var rec func(prefix []int) error
	rec = func(prefix []int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if opts.MaxRuns > 0 && rep.Runs >= opts.MaxRuns {
			rep.Truncated = true
			return nil
		}
		sys, err := replay(f, prefix)
		if err != nil {
			return err
		}
		if inputs == nil {
			inputs = sys.Inputs()
		}
		claimed, err := seen.claim(sys, len(prefix), &ks)
		if err != nil || !claimed {
			sys.Close()
			if err == nil {
				rep.Deduped++
			}
			return err
		}
		rep.States++
		for pid := 0; pid < sys.N(); pid++ {
			if d, ok := sys.Decided(pid); ok {
				decided[d] = struct{}{}
			}
		}
		sched := prefixSched(prefix)
		if problem := checkSafety(sys, inputs); problem != "" {
			rep.Violations = append(rep.Violations, Violation{Schedule: sched.schedule(), Problem: problem})
		}
		live := sys.LiveSet()
		sys.Close()
		if opts.SoloBudget > 0 {
			vs, err := soloViolations(live, opts.SoloBudget, sched, func() (*sim.System, error) {
				return replay(f, prefix)
			})
			if err != nil {
				return err
			}
			rep.Violations = append(rep.Violations, vs...)
		}
		if len(live) == 0 || (opts.MaxDepth > 0 && len(prefix) >= opts.MaxDepth) {
			rep.Runs++
			return nil
		}
		for _, pid := range live {
			if err := rec(append(slices.Clip(prefix), pid)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(nil); err != nil {
		return nil, err
	}
	for v := range decided {
		rep.DecidedValues = append(rep.DecidedValues, v)
	}
	slices.Sort(rep.DecidedValues)
	seen.summarize(rep)
	return rep, nil
}

// prefixSched adapts the oracle's explicit prefix to schedSource.
type prefixSched []int

func (p prefixSched) schedule() []int { return append(make([]int, 0, len(p)), p...) }

// runReplay is run for the replay oracle.
func runReplay(t *testing.T, f Factory, opts Options) *Report {
	t.Helper()
	rep, err := exhaustiveReplay(context.Background(), f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
