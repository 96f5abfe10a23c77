package core

import "fmt"

// Sanity checks a row's internal consistency for a given n: the lower bound
// must not exceed the upper bound, and the protocol's declared location
// count must match the upper-bound evaluation for exact bounds.
func Sanity(r Row, n int) error {
	lo, up := SP(r, n)
	if lo != Unbounded && up != Unbounded && lo > up {
		return fmt.Errorf("core: row %s at n=%d: lower %d exceeds upper %d", r.ID, n, lo, up)
	}
	if r.Build == nil {
		return nil
	}
	pr := r.Build(n)
	if pr.Unbounded != (up == Unbounded) {
		return fmt.Errorf("core: row %s: protocol unboundedness mismatch", r.ID)
	}
	if !pr.Unbounded && !r.Upper.Asymptotic && pr.Locations != up {
		return fmt.Errorf("core: row %s at n=%d: protocol declares %d locations, upper bound is %d",
			r.ID, n, pr.Locations, up)
	}
	return nil
}
