// Command bench maintains BENCH.json, the repository's benchmark
// trajectory: one entry per PR recording steps/sec on the compiled solve
// path and states/sec, forks/sec, and allocations/state on the exhaustive
// exploration path, over a pinned instance set. Appending an entry per PR
// makes throughput regressions permanently visible in review; -check
// compares the two most recent committed entries so CI fails on an
// unexplained regression without re-measuring on noisy shared hardware.
//
// Usage:
//
//	go run ./cmd/bench -label "PR 6 after" [-note "..."] [-mintime 1s]
//	go run ./cmd/bench -check            # schema + regression gate (CI)
//	go run ./cmd/bench -smoke            # tiny run, validates the runner
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/sim"
)

// schemaVersion guards BENCH.json against silent format drift: -check
// refuses files written by a different schema.
const schemaVersion = 1

// benchFile is a BENCH.json document.
type benchFile struct {
	Schema  int     `json:"schema"`
	Entries []entry `json:"entries"`
}

// entry is one measured point of the trajectory.
type entry struct {
	Label  string            `json:"label"`
	Commit string            `json:"commit"`
	Date   string            `json:"date"`
	Go     string            `json:"go"`
	Note   string            `json:"note,omitempty"`
	Rows   []rowMeasurements `json:"rows"`
}

type rowMeasurements struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// higherIsBetter classifies each metric for the -check regression gate.
// Anything not listed here (allocs_per_state, bytes_per_state) is
// lower-is-better.
var higherIsBetter = map[string]bool{
	"steps_per_sec":  true,
	"runs_per_sec":   true,
	"states_per_sec": true,
	"forks_per_sec":  true,
}

// regressionTolerance is the unexplained-regression gate: a throughput
// metric may not drop below (1 - tolerance) of the previous entry, and
// allocs/state may not grow beyond 1/(1 - tolerance) of it, unless the new
// entry carries a note explaining why.
const regressionTolerance = 0.10

func main() {
	var (
		out     = flag.String("out", "BENCH.json", "trajectory file")
		label   = flag.String("label", "", "label for the appended entry (required unless -check/-smoke)")
		note    = flag.String("note", "", "explanation attached to the entry; exempts it from the -check regression gate")
		minTime = flag.Duration("mintime", time.Second, "minimum measurement time per row")
		check   = flag.Bool("check", false, "validate schema and gate regressions between the two most recent entries; no measurement")
		smoke   = flag.Bool("smoke", false, "run a minimal measurement to validate the runner; nothing is written")
	)
	flag.Parse()

	switch {
	case *check:
		if err := runCheck(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println("BENCH.json: schema ok, no unexplained regression")
	case *smoke:
		rows, err := measureAll(50 * time.Millisecond)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		for _, r := range rows {
			fmt.Printf("%-24s %v\n", r.Name, fmtMetrics(r.Metrics))
		}
	default:
		if *label == "" {
			fmt.Fprintln(os.Stderr, "bench: -label is required when appending an entry")
			os.Exit(1)
		}
		if err := appendEntry(*out, *label, *note, *minTime); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

func fmtMetrics(m map[string]float64) string {
	var parts []string
	for _, k := range []string{"steps_per_sec", "runs_per_sec", "states_per_sec", "forks_per_sec", "allocs_per_state", "bytes_per_state"} {
		if v, ok := m[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.4g", k, v))
		}
	}
	return strings.Join(parts, " ")
}

func appendEntry(path, label, note string, minTime time.Duration) error {
	doc, err := load(path)
	if err != nil {
		return err
	}
	rows, err := measureAll(minTime)
	if err != nil {
		return err
	}
	e := entry{
		Label:  label,
		Commit: headCommit(),
		Date:   time.Now().UTC().Format("2006-01-02"),
		Go:     runtime.Version(),
		Note:   note,
		Rows:   rows,
	}
	doc.Entries = append(doc.Entries, e)
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("appended entry %q (%s)\n", label, e.Commit)
	for _, r := range rows {
		fmt.Printf("%-24s %v\n", r.Name, fmtMetrics(r.Metrics))
	}
	return nil
}

func load(path string) (*benchFile, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &benchFile{Schema: schemaVersion}, nil
	}
	if err != nil {
		return nil, err
	}
	var doc benchFile
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %d, runner expects %d", path, doc.Schema, schemaVersion)
	}
	return &doc, nil
}

func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runCheck validates the committed trajectory: schema, per-entry shape, and
// the regression gate between the two most recent entries. It deliberately
// does not re-measure — CI hardware is too noisy to compare absolute
// numbers against a developer machine; the committed entries are the
// ground truth and the smoke mode separately proves the runner still runs.
func runCheck(path string) error {
	doc, err := load(path)
	if err != nil {
		return err
	}
	if len(doc.Entries) == 0 {
		return fmt.Errorf("%s: no entries", path)
	}
	for i, e := range doc.Entries {
		if e.Label == "" || e.Date == "" || len(e.Rows) == 0 {
			return fmt.Errorf("%s: entry %d: missing label, date, or rows (schema drift?)", path, i)
		}
		for _, r := range e.Rows {
			if r.Name == "" || len(r.Metrics) == 0 {
				return fmt.Errorf("%s: entry %d: row with no name or metrics", path, i)
			}
		}
	}
	if len(doc.Entries) < 2 {
		return nil // a single (baseline) entry has nothing to regress against
	}
	prev, last := doc.Entries[len(doc.Entries)-2], doc.Entries[len(doc.Entries)-1]
	if last.Note != "" {
		return nil // explained entry: the note waives the gate
	}
	prevRows := map[string]map[string]float64{}
	for _, r := range prev.Rows {
		prevRows[r.Name] = r.Metrics
	}
	for _, r := range last.Rows {
		base, ok := prevRows[r.Name]
		if !ok {
			continue
		}
		for k, v := range r.Metrics {
			b, ok := base[k]
			if !ok || b <= 0 {
				continue
			}
			if higherIsBetter[k] {
				if v < b*(1-regressionTolerance) {
					return fmt.Errorf("unexplained regression: %s %s fell %.1f%% (%.4g -> %.4g); add a note to the entry if intended",
						r.Name, k, 100*(1-v/b), b, v)
				}
			} else if v > b/(1-regressionTolerance) {
				return fmt.Errorf("unexplained regression: %s %s grew %.1f%% (%.4g -> %.4g); add a note to the entry if intended",
					r.Name, k, 100*(v/b-1), b, v)
			}
		}
	}
	return nil
}

// --- measurement -------------------------------------------------------------

// measureAll runs the pinned row set. The set is fixed: changing it breaks
// trajectory comparability, so add rows only alongside a note in the first
// entry that carries them.
func measureAll(minTime time.Duration) ([]rowMeasurements, error) {
	var rows []rowMeasurements
	for _, id := range []string{"T1.9", "T1.10", "T1.12"} {
		m, err := measureSolve(id, minTime)
		if err != nil {
			return nil, fmt.Errorf("row %s: %w", id, err)
		}
		rows = append(rows, rowMeasurements{Name: strings.ToLower(id) + "-solve", Metrics: m})
	}
	casM, err := measureExplore(func() *consensus.Protocol { return consensus.CAS(3) },
		[]int{2, 0, 1}, explore.Options{MaxDepth: 6, Dedup: true}, minTime)
	if err != nil {
		return nil, fmt.Errorf("cas3-explore: %w", err)
	}
	rows = append(rows, rowMeasurements{Name: "cas3-explore", Metrics: casM})
	incM, err := measureExplore(func() *consensus.Protocol { return consensus.Increment(4) },
		[]int{1, 0, 1, 0}, explore.Options{MaxDepth: 7, Dedup: true, Symmetry: true}, minTime)
	if err != nil {
		return nil, fmt.Errorf("increment4-sym-explore: %w", err)
	}
	rows = append(rows, rowMeasurements{Name: "increment4-sym-explore", Metrics: incM})
	// The memory-bound row: the same symmetric increment lift explored twice
	// as deep through the hash-compaction table, adding bytes_per_state —
	// the metric the compacted modes exist to shrink.
	cmpM, err := measureExplore(func() *consensus.Protocol { return consensus.Increment(4) },
		[]int{1, 0, 1, 0}, explore.Options{MaxDepth: 12,
			Dedup: true, Symmetry: true, Table: explore.TableCompact}, minTime)
	if err != nil {
		return nil, fmt.Errorf("increment4-d12-compact-explore: %w", err)
	}
	rows = append(rows, rowMeasurements{Name: "increment4-d12-compact-explore", Metrics: cmpM})
	// The same instance keyed by the incrementally-maintained 128-bit
	// state hash (TableCompact128): states/sec here tracks the cost of the
	// rolling fp128 lanes on the mutation path, which replaced per-state
	// streamed rehashing.
	cmp128M, err := measureExplore(func() *consensus.Protocol { return consensus.Increment(4) },
		[]int{1, 0, 1, 0}, explore.Options{MaxDepth: 12,
			Dedup: true, Symmetry: true, Table: explore.TableCompact128}, minTime)
	if err != nil {
		return nil, fmt.Errorf("increment4-d12-compact128-explore: %w", err)
	}
	rows = append(rows, rowMeasurements{Name: "increment4-d12-compact128-explore", Metrics: cmp128M})
	return rows, nil
}

// measureSolve sweeps seeds through one compiled handle (the PR 4 pristine
// snapshot path) and reports decided steps/sec and runs/sec.
func measureSolve(rowID string, minTime time.Duration) (map[string]float64, error) {
	const n = 8
	p, err := repro.Compile(rowID, n)
	if err != nil {
		return nil, err
	}
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = (i*3 + 1) % p.Values()
	}
	ctx := context.Background()
	// Warm the pristine snapshot so the measured region is the steady state.
	if _, err := p.Solve(ctx, inputs, repro.Seed(1)); err != nil {
		return nil, err
	}
	var (
		steps int64
		runs  int64
		seed  int64
	)
	start := time.Now()
	for time.Since(start) < minTime {
		for i := 0; i < 20; i++ {
			seed++
			out, err := p.Solve(ctx, inputs, repro.Seed(seed))
			if err != nil {
				return nil, err
			}
			steps += out.Steps
			runs++
		}
	}
	el := time.Since(start).Seconds()
	return map[string]float64{
		"steps_per_sec": float64(steps) / el,
		"runs_per_sec":  float64(runs) / el,
	}, nil
}

// measureExplore repeats a bounded exhaustive exploration and reports
// states/sec, forks/sec, and allocations per explored state.
func measureExplore(build func() *consensus.Protocol, inputs []int, opts explore.Options, minTime time.Duration) (map[string]float64, error) {
	factory := func() (*sim.System, error) {
		return build().NewSystem(inputs)
	}
	ctx := context.Background()
	// One warm-up exploration outside the measured region.
	if _, err := explore.Exhaustive(ctx, factory, opts); err != nil {
		return nil, err
	}
	var (
		states int64
		last   *explore.Report
		ms0    runtime.MemStats
		ms1    runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	forks0 := sim.ForkTally()
	start := time.Now()
	for time.Since(start) < minTime {
		rep, err := explore.Exhaustive(ctx, factory, opts)
		if err != nil {
			return nil, err
		}
		states += rep.States
		last = rep
	}
	el := time.Since(start).Seconds()
	forks := sim.ForkTally() - forks0
	runtime.ReadMemStats(&ms1)
	allocs := ms1.Mallocs - ms0.Mallocs
	m := map[string]float64{
		"states_per_sec":   float64(states) / el,
		"forks_per_sec":    float64(forks) / el,
		"allocs_per_state": float64(allocs) / float64(states),
	}
	// Seen-state storage cost, the axis the compacted tables trade on.
	// Deterministic across repeats (every iteration explores the same
	// space), so the last report speaks for all of them.
	if last.Mem.TableBytes > 0 && last.DistinctStates > 0 {
		m["bytes_per_state"] = float64(last.Mem.TableBytes) / float64(last.DistinctStates)
	}
	return m, nil
}
