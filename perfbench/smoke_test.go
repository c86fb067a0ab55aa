package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names, with
// their units, and that no operation failed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			res := runTiny(t, w.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace == 0 {
				if r := res.Metrics["success_rate"].Value; r != 1 {
					t.Errorf("%s: success_rate %v, want 1", w.Name, r)
				}
			}
		}
	}
}

// TestRefusals checks the flag checks and the load discipline: a GOMAXPROCS
// above the CPU count is refused.
func TestRefusals(t *testing.T) {
	refused := func(args ...string) {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(args, "--out", t.TempDir()), &out, &errb); code == 0 {
			t.Errorf("%v: exit 0, want a refusal", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q on a refusal", args, out.String())
		}
	}
	refused("--workload", "nope")
	refused("--workload", "study", "--trace", "2")

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	refused("--workload", "daemon", "--seconds", "1", "--scale", "0.02")
}

// runTiny runs one workload for a second on a tiny world and decodes the
// last line of its output.
func runTiny(t *testing.T, workload string, trace int) result {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--scale", "0.02",
		"--trace", map[int]string{0: "0", 1: "1"}[trace], "--out", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace %d: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %d: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	return res
}
