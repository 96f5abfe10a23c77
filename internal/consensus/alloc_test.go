package consensus

import "testing"

// TestAddSystemAllocs bounds the cost of building an Add system. The m
// powers of 3n behind the add protocols' counter, and their instructions,
// are built once per system and shared by its processes; rebuilding them
// per process made Add(64).NewSystem cost about 33,000 allocations (2 MB)
// where the shared table needs about 700.
func TestAddSystemAllocs(t *testing.T) {
	const n, bound = 64, 2000
	pr := Add(n)
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i
	}
	allocs := testing.AllocsPerRun(5, func() {
		sys, err := pr.NewSystem(inputs)
		if err != nil {
			t.Fatal(err)
		}
		sys.Close()
	})
	if allocs > bound {
		t.Fatalf("Add(%d).NewSystem: %.0f allocations, bound %d", n, allocs, bound)
	}
	t.Logf("Add(%d).NewSystem: %.0f allocations", n, allocs)
}
