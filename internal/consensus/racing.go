package consensus

// The racing-counters consensus algorithms of Lemmas 3.1 and 3.2 run
// generically over any counter object. Every upper bound in the paper except
// the max-register, CAS and introduction protocols reduces to one of these
// two loops over a suitable counter implementation; raceStepper
// (steppers.go) runs both over a counter.Machine, and this file holds the
// rules they share.

// leader returns the component with the largest count, breaking ties towards
// the smallest index (any deterministic rule satisfies the lemmas).
func leader(s []int64) int {
	best := 0
	for v := 1; v < len(s); v++ {
		if s[v] > s[best] {
			best = v
		}
	}
	return best
}

// winner reports a component whose count is at least lead larger than every
// other component's, if any.
func winner(s []int64, lead int64) (int, bool) {
	v := leader(s)
	for u := range s {
		if u != v && s[u]+lead > s[v] {
			return 0, false
		}
	}
	return v, true
}
