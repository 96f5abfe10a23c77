package consensus

// ForkableInstance is one protocol carrying explicit forkable steppers, at
// an instance size small enough for exhaustive-ish schedule sweeps. The
// differential suites — steppers vs bodies, parallel vs sequential
// exploration — iterate the portfolio so every ported protocol is pinned by
// every battery.
type ForkableInstance struct {
	Name   string
	Build  func() *Protocol
	Inputs []int
}

// ForkablePortfolio enumerates every protocol ported to explicit forkable
// state machines (see steppers.go): the CAS and introduction protocols, the
// max-register protocol, the racing loops over each counter machine, and
// the Lemma 5.2 multi-valued lifts.
func ForkablePortfolio() []ForkableInstance {
	return []ForkableInstance{
		{"cas", func() *Protocol { return CAS(3) }, []int{2, 0, 1}},
		{"intro-faa2-tas", func() *Protocol { return IntroFAA2TAS(3) }, []int{1, 0, 1}},
		{"intro-dec-mul", func() *Protocol { return IntroDecMul(3) }, []int{0, 1, 0}},
		{"max-registers", func() *Protocol { return MaxRegisters(3) }, []int{2, 0, 1}},
		{"multiply", func() *Protocol { return Multiply(3) }, []int{1, 2, 0}},
		{"fetch-multiply", func() *Protocol { return FetchMultiply(3) }, []int{2, 1, 0}},
		{"add", func() *Protocol { return Add(3) }, []int{0, 2, 1}},
		{"fetch-add", func() *Protocol { return FetchAdd(3) }, []int{1, 0, 2}},
		{"set-bit", func() *Protocol { return SetBit(3) }, []int{2, 0, 1}},
		{"increment-binary", func() *Protocol { return IncrementBinary(3) }, []int{1, 0, 1}},
		{"increment", func() *Protocol { return Increment(4) }, []int{3, 1, 2, 0}},
		{"fetch-increment", func() *Protocol { return FetchIncrement(3) }, []int{2, 1, 0}},
		{"binary-bits", func() *Protocol { return BinaryBits(3) }, []int{1, 0, 1}},
		{"write-bits", func() *Protocol { return WriteBits(3) }, []int{2, 0, 1}},
		{"tas-reset", func() *Protocol { return TASReset(3) }, []int{1, 2, 0}},
		{"tas-tracks", func() *Protocol { return TASTracks(3) }, []int{2, 0, 1}},
		{"registers", func() *Protocol { return Registers(3) }, []int{1, 2, 0}},
		{"swap", func() *Protocol { return Swap(3) }, []int{2, 1, 0}},
		{"swap-4", func() *Protocol { return Swap(4) }, []int{3, 1, 0, 2}},
		{"buffers", func() *Protocol { return Buffered(3, 2) }, []int{0, 2, 1}},
		{"buffers-multi-assign", func() *Protocol { return BufferedMultiAssign(3, 2) }, []int{1, 0, 2}},
	}
}
