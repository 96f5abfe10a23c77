package sim

// ProcStateKey returns process pid's local-state key; ok is false when its
// stepper has none.
func (s *System) ProcStateKey(pid int) (key uint64, ok bool) {
	k, ok := s.procs[pid].st.(StateKeyer)
	if !ok {
		return 0, false
	}
	return k.StateKey(nil)
}

// NewGoroutineSystem builds a system of Body processes on the goroutine
// engine, the oracle the coroutine adapter is tested against.
var NewGoroutineSystem = newGoroutineSystem

// Stepper returns process pid's stepper, for the tests of the Stepper
// contract.
func (s *System) Stepper(pid int) Stepper { return s.procs[pid].st }
