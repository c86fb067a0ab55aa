package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// The bench-regression gate: CI regenerates BENCH_analysis.json on every
// push and compares it against the committed BENCH_baseline.json. Any
// hot-path entry that got slower by more than -maxregress (and by more than
// an absolute noise floor) fails the job.

// minRegressDeltaNs is the absolute noise floor: entries whose slowdown is
// under a quarter millisecond never fail the gate, however large the ratio —
// micro-entries jitter far more than 30% between runs and machines.
const minRegressDeltaNs = 250_000

// minRegressDeltaAllocs is the alloc branch's absolute floor: a steady-state
// path whose baseline is ~2 allocs/op may jitter by a handful (pool refills,
// map growth crossing a threshold) without signalling a real regression; a
// re-introduced per-item allocation blows straight past it.
const minRegressDeltaAllocs = 8.0

// regression is one entry that got slower past the gate's threshold, on the
// wall-clock axis ("ns/op") or the allocation axis ("allocs/op").
type regression struct {
	name       string
	axis       string
	base, curr float64
}

// ratio is the regression factor (current over baseline).
func (r regression) ratio() float64 { return r.curr / r.base }

// compareReports returns the entries of curr that regressed against base by
// more than maxRegress (a fraction: 0.30 fails anything >1.3× slower) and
// past the absolute noise floor. Entries present on only one side are
// ignored — adding or retiring a measurement must not break the gate.
func compareReports(base, curr benchReport, maxRegress float64) []regression {
	baseline := make(map[string]benchEntry, len(base.Results))
	for _, e := range base.Results {
		baseline[e.Name] = e
	}
	var regs []regression
	for _, e := range curr.Results {
		b, ok := baseline[e.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && e.NsPerOp > b.NsPerOp*(1+maxRegress) && e.NsPerOp-b.NsPerOp > minRegressDeltaNs {
			regs = append(regs, regression{name: e.Name, axis: "ns/op", base: b.NsPerOp, curr: e.NsPerOp})
		}
		// Alloc branch: only entries carrying heap accounting on both sides
		// participate — dropping or adding the instrumentation must not fail
		// the gate, exactly like adding or retiring an entry.
		if b.AllocsPerOp != nil && e.AllocsPerOp != nil &&
			*e.AllocsPerOp > *b.AllocsPerOp*(1+maxRegress) &&
			*e.AllocsPerOp-*b.AllocsPerOp > minRegressDeltaAllocs {
			regs = append(regs, regression{name: e.Name, axis: "allocs/op", base: *b.AllocsPerOp, curr: *e.AllocsPerOp})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].ratio() > regs[j].ratio() })
	return regs
}

// sharedEntries counts the entries of curr that base also names: the ones
// compareReports judges.
func sharedEntries(base, curr benchReport) int {
	names := make(map[string]bool, len(base.Results))
	for _, e := range base.Results {
		names[e.Name] = true
	}
	n := 0
	for _, e := range curr.Results {
		if names[e.Name] {
			n++
		}
	}
	return n
}

// readBenchReport loads one BENCH_*.json file.
func readBenchReport(path string) (benchReport, error) {
	var rep benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return rep, fmt.Errorf("%s: no measurements", path)
	}
	return rep, nil
}

// runCompare is the gate's CLI body: load both reports, print the verdict,
// and return an error (non-zero exit) when anything regressed or when the
// reports share no entry.
func runCompare(basePath, currPath string, maxRegress float64, stdout io.Writer) error {
	if maxRegress <= 0 {
		return fmt.Errorf("-maxregress must be positive, got %v", maxRegress)
	}
	base, err := readBenchReport(basePath)
	if err != nil {
		return err
	}
	curr, err := readBenchReport(currPath)
	if err != nil {
		return err
	}
	// Same-workload guard: comparing different scales or seeds would
	// produce a confidently wrong verdict (every entry ~linearly off).
	if base.Scale != curr.Scale || base.Seed != curr.Seed {
		return fmt.Errorf("workload mismatch: %s is scale=%v seed=%d, %s is scale=%v seed=%d — regenerate the baseline at the gate's workload",
			basePath, base.Scale, base.Seed, currPath, curr.Scale, curr.Seed)
	}
	// A gate over disjoint reports would pass having compared nothing.
	shared := sharedEntries(base, curr)
	if shared == 0 {
		return fmt.Errorf("%s and %s share no entry name: the gate would compare nothing — add the entries to the baseline",
			basePath, currPath)
	}
	regs := compareReports(base, curr, maxRegress)
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "bench gate: OK — no entry of %s regressed >%.0f%% vs %s (%d entries compared)\n",
			currPath, maxRegress*100, basePath, shared)
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d hot path(s) regressed >%.0f%% vs %s:", len(regs), maxRegress*100, basePath)
	for _, r := range regs {
		if r.axis == "allocs/op" {
			fmt.Fprintf(&sb, "\n  %-24s %.2fx more allocations (%.1f -> %.1f allocs/op)",
				r.name, r.ratio(), r.base, r.curr)
			continue
		}
		fmt.Fprintf(&sb, "\n  %-24s %.2fx slower (%.3fms -> %.3fms)",
			r.name, r.ratio(), r.base/1e6, r.curr/1e6)
	}
	return fmt.Errorf("%s", sb.String())
}
