package consensus

// This file holds the layout of Lemma 5.2: given an obstruction-free binary
// consensus algorithm using c locations, n processes agree on an n-valued
// input bit-by-bit in ceil(log2 n) rounds of c+2 locations each, saving the
// two designated value locations in the final round — (c+2)*ceil(log2 n) - 2
// locations total. Theorem 9.4 replaces each designated multi-valued
// location with a run of n binary locations, so a slot spans slotSize
// locations. mvStepper (steppers.go) runs the construction.

// bitsFor returns ceil(log2 m), the number of agreement rounds for m values
// (at least 1).
func bitsFor(m int) int {
	k := 1
	for (1 << k) < m {
		k++
	}
	return k
}

// lemma52Locations returns the total location count of the construction.
func lemma52Locations(m, c, slotSize int) int {
	return roundBase(bitsFor(m)-1, c, slotSize) + c
}

// roundBase returns the first location of a round: rounds 0..k-2 are
// [slot0][slot1][binary consensus locations]; round k-1 has no slots.
func roundBase(round, c, slotSize int) int {
	return round * (2*slotSize + c)
}
