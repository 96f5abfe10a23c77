// Package sim executes deterministic asynchronous processes against a
// machine.Memory under the control of an adversarial scheduler, implementing
// the computation model of Section 2 of the paper: each step is one atomic
// instruction by one process, scheduling is adversary-controlled, processes
// may crash at any time, and a decided process takes no further steps.
//
// The execution core is a resumable step-VM: each process is a Stepper — a
// state machine that exposes the instruction it is poised to perform and is
// resumed with the instruction's result — and System.Step runs it
// synchronously, with no goroutine handoff and no channel operation on the
// step path. Processes written as ordinary Go functions (Body) are adapted
// onto the VM by a coroutine adapter (see stepper.go); the pre-VM
// goroutine+channel engine survives only in the package's tests, as a
// differential-testing oracle.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Body is the code of one process. It performs shared-memory instructions
// through p and returns its decision. Returning is the act of deciding:
// afterwards the scheduler allocates the process no further steps.
//
// A Body must be deterministic (the paper's model) and must not perform
// unbounded local computation between instructions.
type Body func(p *Proc) int

// errKilled is the sentinel carried by the panic that unwinds a process
// body when its System is closed or the process is crashed.
var errKilled = errors.New("sim: process killed")

// Proc is the handle a Body uses to interact with the system: identity,
// input, and atomic instruction application. It is the compatibility surface
// between function-shaped processes and the step-VM: each Apply suspends the
// body at a poise point and resumes it with the instruction's result.
type Proc struct {
	id    int
	n     int
	input int
	clock *int64 // the system's step counter; read-only for the body
	// submit parks the body on its poised instruction and returns the
	// result once the scheduler has executed it. Set by the engine adapter.
	// It panics errKilled to unwind the body on crash or close.
	submit func(info OpInfo) machine.Value
}

// ID returns the process id in 0..n-1.
func (p *Proc) ID() int { return p.id }

// N returns the number of processes in the system.
func (p *Proc) N() int { return p.n }

// Input returns the process's consensus input.
func (p *Proc) Input() int { return p.input }

// Clock returns the number of atomic steps the whole system has executed.
// Reading it between a process's own instructions is race-free: the system
// is quiescent while a body computes locally. Tests use it to timestamp
// operation spans for linearizability checking.
func (p *Proc) Clock() int64 {
	return *p.clock
}

// Apply performs one atomic instruction on one memory location and returns
// its result. The call suspends the process until the scheduler allocates it
// a step. Instruction misuse (wrong operands, instruction outside the
// memory's set) is a programming error and panics; the System converts the
// panic into a run error.
func (p *Proc) Apply(loc int, op machine.Op, args ...machine.Value) machine.Value {
	return p.submit(OpInfo{Loc: loc, Op: op, Args: args})
}

// MultiAssign atomically performs one write-class instruction per listed
// location (Section 7's multiple assignment). It counts as a single step.
func (p *Proc) MultiAssign(writes ...machine.Assignment) {
	p.submit(OpInfo{Multi: writes})
}

// OpInfo describes the instruction a live process is poised to perform. It
// is what the paper's covering arguments inspect: a process "covers" a
// location when it is poised to perform a non-trivial instruction on it.
type OpInfo struct {
	Loc  int
	Op   machine.Op
	Args []machine.Value
	// Multi is non-nil when the process is poised to perform an atomic
	// multiple assignment; Loc/Op/Args are then meaningless.
	Multi []machine.Assignment
}

// Covers reports whether the poised instruction writes location loc (for a
// multiple assignment: whether any of its assignments does).
func (i OpInfo) Covers(loc int) bool {
	if i.Multi != nil {
		for _, w := range i.Multi {
			if w.Loc == loc {
				return true
			}
		}
		return false
	}
	return !i.Op.Trivial() && i.Loc == loc
}

// CoveredLocs returns the set of locations the poised instruction writes.
func (i OpInfo) CoveredLocs() []int {
	if i.Multi != nil {
		locs := make([]int, 0, len(i.Multi))
		for _, w := range i.Multi {
			locs = append(locs, w.Loc)
		}
		return locs
	}
	if i.Op.Trivial() {
		return nil
	}
	return []int{i.Loc}
}

func (i OpInfo) String() string {
	if i.Multi != nil {
		return fmt.Sprintf("multi-assign(%d locations)", len(i.Multi))
	}
	return fmt.Sprintf("%v@%d", i.Op, i.Loc)
}
