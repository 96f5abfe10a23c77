// Package lowerbound packages the valency-and-covering machinery that every
// space lower bound in the paper is assembled from (Sections 6.2, 7 and 9):
// bivalent configurations (Lemma 6.4), executions splitting two processes
// onto different decisions (Lemma 6.6), coverage census over poised
// instructions, and block-write indistinguishability probes (Lemma 6.5's
// engine). A Config identifies a reachable configuration by its schedule
// prefix, and materializes it through System.Fork: for protocols expressed
// as explicit forkable steppers each Config lazily caches a snapshot, so
// re-materializing — which the probes do constantly — costs one O(state)
// fork of the nearest cached ancestor plus the remaining suffix steps,
// instead of a fresh system plus the whole prefix. Every protocol of
// internal/consensus forks. Protocols written as a Body (user protocols,
// internal/adoptcommit) run on the coroutine adapter and cannot fork:
// Materialize reaches their configurations by replaying the schedule from a
// fresh system, which the step-VM keeps cheap, and the valency oracle
// Bivalent, which explores, refuses them with sim.ErrNotForkable.
//
// These are bounded, executable forms: the lemmas quantify over all
// protocols and use unbounded executions; the functions here verify or
// search within explicit budgets, which suffices to drive and to test the
// constructions on concrete protocols.
package lowerbound

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/sim"
)

// Factory builds a fresh system in its initial configuration.
type Factory = explore.Factory

// Config identifies a reachable configuration: the schedule prefix that
// leads to it from the initial configuration. Configs derived via Extend
// remember their parent, and each Config caches a forkable snapshot the
// first time it is materialized (when the protocol forks natively), so a
// chain of extensions re-materializes from the nearest snapshot instead of
// from scratch. Snapshots of natively forkable systems hold no coroutines
// or goroutines and are reclaimed by the garbage collector with the Config.
type Config struct {
	f      Factory
	Prefix []int
	parent *Config
	tail   []int       // Prefix = parent.Prefix + tail when parent != nil
	snap   *sim.System // cached snapshot; only for natively forkable systems
	used   bool        // materialized at least once; gates snapshot caching
}

// At returns the configuration reached by prefix.
func At(f Factory, prefix ...int) *Config {
	return &Config{f: f, Prefix: append([]int(nil), prefix...)}
}

// Materialize produces a live system at the configuration, by forking the
// nearest cached snapshot up the Extend chain and stepping the remaining
// suffix — or, for protocols that do not fork natively, by replaying the
// whole prefix from a fresh system. Callers own the returned system and
// must Close it.
func (c *Config) Materialize() (*sim.System, error) {
	if c.snap != nil {
		return c.snap.Fork()
	}
	var (
		sys  *sim.System
		tail []int
		err  error
	)
	if c.parent != nil {
		sys, err = c.parent.Materialize()
		tail = c.tail
	} else {
		sys, err = c.f()
		tail = c.Prefix
	}
	if err != nil {
		return nil, err
	}
	for _, pid := range tail {
		if _, err := sys.Step(pid); err != nil {
			sys.Close()
			return nil, fmt.Errorf("lowerbound: replaying %v: %w", c.Prefix, err)
		}
	}
	// Cache a snapshot only from the second materialization on: throwaway
	// Configs (materialized once, then dropped — the block-write probes'
	// extensions) never pay the extra fork, while any Config used as a base
	// for repeated probes or extensions gets cached on its first reuse.
	if c.used && sys.ForksNatively() {
		if snap, err := sys.Fork(); err == nil {
			c.snap = snap
		}
	}
	c.used = true
	return sys, nil
}

// Extend returns the configuration after further steps.
func (c *Config) Extend(pids ...int) *Config {
	next := make([]int, 0, len(c.Prefix)+len(pids))
	next = append(next, c.Prefix...)
	next = append(next, pids...)
	return &Config{f: c.f, Prefix: next, parent: c, tail: next[len(c.Prefix):]}
}

// SoloDecision runs pid alone from the configuration and returns its
// decision. ok is false if it does not decide within maxSteps (an
// obstruction-freedom violation for consensus protocols) or is not live.
func (c *Config) SoloDecision(pid int, maxSteps int64) (int, bool, error) {
	sys, err := c.Materialize()
	if err != nil {
		return 0, false, err
	}
	defer sys.Close()
	for i := int64(0); i < maxSteps && sys.Live(pid); i++ {
		if _, err := sys.Step(pid); err != nil {
			return 0, false, err
		}
	}
	d, ok := sys.Decided(pid)
	return d, ok, nil
}

// Bivalent reports whether the process set can decide both 0 and 1 from the
// configuration, searching set-only schedules up to extraDepth further
// steps (the executable form of the paper's bivalence; Lemma 6.4 asserts it
// for initial configurations with both inputs present). Each valency query
// starts from a fork of the configuration rather than a fresh replay. A
// protocol that cannot fork (a Body system) fails with sim.ErrNotForkable.
func (c *Config) Bivalent(set []int, extraDepth int) (bool, error) {
	for _, v := range []int{0, 1} {
		sys, err := c.Materialize()
		if err != nil {
			return false, err
		}
		can, err := explore.CanDecideFrom(sys, set, v, extraDepth)
		if err != nil {
			return false, err
		}
		if !can {
			return false, nil
		}
	}
	return true, nil
}

// Split searches for an extension of the configuration after which two
// distinct processes decide different values in their solo executions —
// the reach of Lemma 6.6. It explores set-only schedules up to depth,
// probing solo decisions with soloBudget steps, and returns the extended
// configuration with the two witness processes. A nil set means all live
// processes.
func (c *Config) Split(set []int, depth int, soloBudget int64) (*Config, int, int, error) {
	var find func(cur *Config, d int) (*Config, int, int, error)
	find = func(cur *Config, d int) (*Config, int, int, error) {
		sys, err := cur.Materialize()
		if err != nil {
			return nil, 0, 0, err
		}
		live := map[int]bool{}
		for _, pid := range sys.LiveSet() {
			live[pid] = true
		}
		members := set
		if members == nil {
			members = sys.LiveSet()
		}
		sys.Close()
		// Probe all pairs of live set members.
		type probe struct {
			pid int
			dec int
		}
		var probes []probe
		for _, pid := range members {
			if !live[pid] {
				continue
			}
			dec, ok, err := cur.SoloDecision(pid, soloBudget)
			if err != nil {
				return nil, 0, 0, err
			}
			if ok {
				probes = append(probes, probe{pid: pid, dec: dec})
			}
		}
		for i := 0; i < len(probes); i++ {
			for j := i + 1; j < len(probes); j++ {
				if probes[i].dec != probes[j].dec {
					return cur, probes[i].pid, probes[j].pid, nil
				}
			}
		}
		if d == 0 {
			return nil, 0, 0, nil
		}
		for _, pid := range members {
			if !live[pid] {
				continue
			}
			got, p0, p1, err := find(cur.Extend(pid), d-1)
			if err != nil || got != nil {
				return got, p0, p1, err
			}
		}
		return nil, 0, 0, nil
	}
	got, p0, p1, err := find(c, depth)
	if err != nil {
		return nil, 0, 0, err
	}
	if got == nil {
		return nil, 0, 0, fmt.Errorf("lowerbound: no split found within depth %d", depth)
	}
	return got, p0, p1, nil
}

// Coverage is the census of which live processes cover which locations in a
// configuration (a process covers a location when poised to perform a
// non-trivial instruction on it).
type Coverage struct {
	// ByLocation maps location -> covering process ids, ascending.
	ByLocation map[int][]int
}

// Covered computes the coverage census of the configuration.
func (c *Config) Covered() (*Coverage, error) {
	sys, err := c.Materialize()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	cov := &Coverage{ByLocation: map[int][]int{}}
	for _, pid := range sys.LiveSet() {
		info, ok := sys.Poised(pid)
		if !ok {
			continue
		}
		for _, loc := range info.CoveredLocs() {
			cov.ByLocation[loc] = append(cov.ByLocation[loc], pid)
		}
	}
	return cov, nil
}

// KCovered returns the locations covered by at least k of the given
// processes — the "l-covered" notion block writes are launched from.
func (cov *Coverage) KCovered(k int, among map[int]bool) []int {
	var out []int
	for loc, pids := range cov.ByLocation {
		count := 0
		for _, pid := range pids {
			if among == nil || among[pid] {
				count++
			}
		}
		if count >= k {
			out = append(out, loc)
		}
	}
	return out
}

// BlockWriteObliterates checks the engine of Lemma 6.5 on a live execution:
// starting from the configuration, performing the block write by writers
// (each poised on a buffer-write to the same l-covered location) makes the
// location's readable contents independent of an arbitrary earlier
// write-class step delta by another process. It replays both orders —
// delta·block and block alone — and compares what a subsequent buffer-read
// of the location returns.
func (c *Config) BlockWriteObliterates(loc int, writers []int, delta int) (bool, error) {
	readAfter := func(ext ...int) (string, error) {
		sys, err := c.Extend(ext...).Materialize()
		if err != nil {
			return "", err
		}
		defer sys.Close()
		vals := sys.Mem().PeekBuffer(loc)
		return fmt.Sprint(vals), nil
	}
	a, err := readAfter(append([]int{delta}, writers...)...)
	if err != nil {
		return false, err
	}
	b, err := readAfter(writers...)
	if err != nil {
		return false, err
	}
	return a == b, nil
}
