package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// report builds a benchReport from name → ns/op pairs.
func report(entries map[string]float64) benchReport {
	rep := benchReport{Scale: 0.15, Seed: 1}
	for name, ns := range entries {
		rep.Results = append(rep.Results, benchEntry{Name: name, NsPerOp: ns, Ops: 1})
	}
	return rep
}

func TestCompareReportsFailsOnInjectedSlowdown(t *testing.T) {
	base := report(map[string]float64{
		"run_full":      200e6,
		"table3_render": 5e6,
		"table4_render": 0.2e6,
	})
	// Inject a 2x slowdown on one hot path.
	curr := report(map[string]float64{
		"run_full":      400e6,
		"table3_render": 5.1e6,
		"table4_render": 0.21e6,
	})
	regs := compareReports(base, curr, 0.30)
	if len(regs) != 1 || regs[0].name != "run_full" {
		t.Fatalf("want exactly run_full flagged, got %+v", regs)
	}
	if r := regs[0].ratio(); r < 1.9 || r > 2.1 {
		t.Fatalf("ratio %v, want ~2.0", r)
	}
}

func TestCompareReportsPassesWithinThreshold(t *testing.T) {
	base := report(map[string]float64{"run_full": 200e6, "table3_render": 5e6})
	curr := report(map[string]float64{"run_full": 250e6, "table3_render": 6e6}) // +25%, +20%
	if regs := compareReports(base, curr, 0.30); len(regs) != 0 {
		t.Fatalf("within-threshold drift flagged: %+v", regs)
	}
}

func TestCompareReportsNoiseFloorAndMissingEntries(t *testing.T) {
	base := report(map[string]float64{
		"micro":   10_000, // 10µs: huge ratio but under the absolute floor
		"retired": 5e6,
	})
	curr := report(map[string]float64{
		"micro": 100_000, // 10x slower, but only +90µs
		"new":   1e9,     // present only in current: never compared
	})
	if regs := compareReports(base, curr, 0.30); len(regs) != 0 {
		t.Fatalf("noise-floor or unmatched entries flagged: %+v", regs)
	}
}

// writeReport marshals a benchReport into dir and returns its path.
func writeTestReport(t *testing.T, dir, name string, rep benchReport) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunCompareEndToEnd exercises the gate through the CLI: a clean pass,
// then a demonstrable failure on a 2x slowdown.
func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base := writeTestReport(t, dir, "BENCH_baseline.json",
		report(map[string]float64{"run_full": 200e6, "table3_render": 5e6}))
	good := writeTestReport(t, dir, "BENCH_good.json",
		report(map[string]float64{"run_full": 190e6, "table3_render": 5.5e6}))
	slow := writeTestReport(t, dir, "BENCH_slow.json",
		report(map[string]float64{"run_full": 200e6, "table3_render": 10e6}))

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-compare", base, "-against", good}, &stdout, &stderr); err != nil {
		t.Fatalf("clean gate failed: %v", err)
	}
	if !strings.Contains(stdout.String(), "bench gate: OK") {
		t.Fatalf("missing OK verdict:\n%s", stdout.String())
	}

	err := run([]string{"-compare", base, "-against", slow}, &stdout, &stderr)
	if err == nil {
		t.Fatal("2x slowdown passed the gate")
	}
	if !strings.Contains(err.Error(), "table3_render") || !strings.Contains(err.Error(), "2.00x") {
		t.Fatalf("verdict does not name the regression: %v", err)
	}

	// Comparing across workloads is rejected, not mis-scored.
	other := report(map[string]float64{"run_full": 200e6})
	other.Scale = 0.3
	mismatch := writeTestReport(t, dir, "BENCH_scale03.json", other)
	if err := run([]string{"-compare", base, "-against", mismatch}, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "workload mismatch") {
		t.Fatalf("scale mismatch not rejected: %v", err)
	}

	// Half a gate is a usage error.
	if err := run([]string{"-compare", base}, &stdout, &stderr); err == nil {
		t.Fatal("-compare without -against accepted")
	}
	// Unreadable input surfaces as an error.
	if err := run([]string{"-compare", filepath.Join(dir, "missing.json"), "-against", good},
		&stdout, &stderr); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestRunCompareNoSharedEntries: two reports that name no entry in common
// fail the gate instead of passing it vacuously, the way a baseline with no
// aliasd_* entry once passed every daemon latency report.
func TestRunCompareNoSharedEntries(t *testing.T) {
	dir := t.TempDir()
	base := writeTestReport(t, dir, "BENCH_baseline.json",
		report(map[string]float64{"run_full": 200e6, "table3_render": 5e6}))
	daemon := writeTestReport(t, dir, "BENCH_aliasd.json",
		report(map[string]float64{"aliasd_ingest_p50": 1e6, "aliasd_query_p50": 1e6}))
	var stdout, stderr bytes.Buffer
	err := run([]string{"-compare", base, "-against", daemon}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "share no entry") {
		t.Fatalf("disjoint reports: err = %v, want a no-shared-entry failure (stdout %q)", err, stdout.String())
	}

	// One shared entry is enough to judge, and the verdict says how many
	// entries it compared.
	mixed := writeTestReport(t, dir, "BENCH_mixed.json",
		report(map[string]float64{"aliasd_ingest_p50": 1e6, "run_full": 210e6}))
	stdout.Reset()
	if err := run([]string{"-compare", base, "-against", mixed}, &stdout, &stderr); err != nil {
		t.Fatalf("one shared entry within threshold failed the gate: %v", err)
	}
	if !strings.Contains(stdout.String(), "(1 entries compared)") {
		t.Fatalf("verdict does not count compared entries:\n%s", stdout.String())
	}
}

// allocEntry builds one alloc-instrumented entry.
func allocEntry(name string, ns, allocs, bytes float64) benchEntry {
	return benchEntry{Name: name, NsPerOp: ns, Ops: 1, AllocsPerOp: &allocs, BytesPerOp: &bytes}
}

// TestCompareReportsFailsOnInjectedAllocBump is the alloc gate's probe: a
// steady-state entry whose allocations double (2 → ~20 allocs/op, the shape
// of a re-introduced per-item allocation) must fail the gate even though its
// wall clock is unchanged.
func TestCompareReportsFailsOnInjectedAllocBump(t *testing.T) {
	base := benchReport{Scale: 0.15, Seed: 1, Results: []benchEntry{
		allocEntry("grouping_steady_state", 3e6, 2, 800),
		allocEntry("fault_draw", 50, 0, 0),
	}}
	curr := benchReport{Scale: 0.15, Seed: 1, Results: []benchEntry{
		allocEntry("grouping_steady_state", 3e6, 20, 700_000),
		allocEntry("fault_draw", 52, 0, 0),
	}}
	regs := compareReports(base, curr, 0.30)
	if len(regs) != 1 || regs[0].name != "grouping_steady_state" || regs[0].axis != "allocs/op" {
		t.Fatalf("want exactly grouping_steady_state flagged on allocs/op, got %+v", regs)
	}
	if r := regs[0].ratio(); r < 9.9 || r > 10.1 {
		t.Fatalf("ratio %v, want ~10", r)
	}
}

// TestCompareReportsAllocFloorAndMissingInstrumentation pins the alloc
// branch's tolerance: jitter under the absolute floor passes, and entries
// instrumented on only one side never participate.
func TestCompareReportsAllocFloorAndMissingInstrumentation(t *testing.T) {
	base := benchReport{Scale: 0.15, Seed: 1, Results: []benchEntry{
		allocEntry("grouping_steady_state", 3e6, 2, 800),
		{Name: "run_full", NsPerOp: 200e6, Ops: 1}, // no alloc data in baseline
	}}
	curr := benchReport{Scale: 0.15, Seed: 1, Results: []benchEntry{
		allocEntry("grouping_steady_state", 3e6, 9, 1200), // 4.5x but only +7 allocs
		allocEntry("run_full", 200e6, 1e6, 1e9),           // instrumented only now
	}}
	if regs := compareReports(base, curr, 0.30); len(regs) != 0 {
		t.Fatalf("alloc floor or one-sided instrumentation flagged: %+v", regs)
	}
}

// TestRunCompareAllocVerdict exercises the alloc gate through the CLI and
// checks the verdict names the axis.
func TestRunCompareAllocVerdict(t *testing.T) {
	dir := t.TempDir()
	base := writeTestReport(t, dir, "BENCH_baseline.json", benchReport{
		Scale: 0.15, Seed: 1,
		Results: []benchEntry{allocEntry("grouping_steady_state", 3e6, 2, 800)},
	})
	bumped := writeTestReport(t, dir, "BENCH_bumped.json", benchReport{
		Scale: 0.15, Seed: 1,
		Results: []benchEntry{allocEntry("grouping_steady_state", 3e6, 40, 2e6)},
	})
	var stdout, stderr bytes.Buffer
	err := run([]string{"-compare", base, "-against", bumped}, &stdout, &stderr)
	if err == nil {
		t.Fatal("20x alloc bump passed the gate")
	}
	if !strings.Contains(err.Error(), "allocs/op") || !strings.Contains(err.Error(), "grouping_steady_state") {
		t.Fatalf("verdict does not name the alloc regression: %v", err)
	}
}
