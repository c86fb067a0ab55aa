package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aliaslimit"
)

// TestLoadTestCLI runs the harness at a tiny scale through the command and
// checks the human summary, the JSON report shape, and the p99 gate in its
// passing configuration.
func TestLoadTestCLI(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_aliasd.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-loadtest", "-clients", "2", "-requests", "4", "-batch", "200",
		"-scale", "0.05", "-json", out, "-maxp99", "5m"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run -loadtest: %v (stderr: %s)", err, stderr.String())
	}
	for _, want := range []string{"aliasd loadtest: scale 0.05 seed 1, 2 tenants",
		"sets_digest", "ingest", "query", "p99 gate: all classes under 5m0s"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, stdout.String())
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep aliaslimit.AliasdLoadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Scale != 0.05 || rep.Seed != 1 || rep.Clients != 2 {
		t.Fatalf("report header %+v does not match flags", rep)
	}
	names := map[string]bool{}
	for _, e := range rep.Results {
		names[e.Name] = true
	}
	for _, want := range []string{"aliasd_session_p50", "aliasd_ingest_p99",
		"aliasd_flush_p90", "aliasd_query_p99"} {
		if !names[want] {
			t.Errorf("report missing bench entry %s (have %v)", want, names)
		}
	}
}

// TestLoadTestP99Gate: an absurdly low ceiling must fail and name the
// offending entries, after the report has been written for CI artifacts.
func TestLoadTestP99Gate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_aliasd.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-loadtest", "-clients", "1", "-requests", "2", "-batch", "200",
		"-scale", "0.05", "-json", out, "-maxp99", "1ns"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("1ns p99 ceiling passed")
	}
	if !strings.Contains(err.Error(), "p99 gate") || !strings.Contains(err.Error(), "aliasd_ingest_p99") {
		t.Errorf("gate error does not name the entries: %v", err)
	}
	if _, statErr := os.Stat(out); statErr != nil {
		t.Errorf("gate failure should still leave the report on disk: %v", statErr)
	}
}

// TestBadArguments covers the flag error paths.
func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); !errors.Is(err, errBadFlags) {
		t.Fatalf("unknown flag: want errBadFlags, got %v", err)
	}
	if err := run([]string{"serve", "extra"}, &stdout, &stderr); !errors.Is(err, errBadFlags) {
		t.Fatalf("positional arguments: want errBadFlags, got %v", err)
	}
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: want flag.ErrHelp, got %v", err)
	}
	// There is one resolver, so -backend is an unknown flag whatever its
	// value.
	for _, name := range []string{"batch", "distributed"} {
		if err := run([]string{"-loadtest", "-backend", name, "-scale", "0.05"},
			&stdout, &stderr); !errors.Is(err, errBadFlags) {
			t.Fatalf("-backend %s: want errBadFlags, got %v", name, err)
		}
	}
}

// TestCIAliasdSmokeJob pins the CI aliasd-smoke job: the daemon's load
// harness must run at the quick preset with a p99 ceiling and upload the
// latency report, and the gate must compare against the committed baseline.
func TestCIAliasdSmokeJob(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	idx := strings.Index(text, "aliasd-smoke:")
	if idx < 0 {
		t.Fatal("ci.yml has no aliasd-smoke job")
	}
	job := text[idx:]
	for _, want := range []string{"go run ./cmd/aliasd -loadtest -quick",
		"-maxp99", "-json BENCH_aliasd.json",
		"-compare BENCH_baseline.json -against BENCH_aliasd.json",
		"BENCH_aliasd.json"} {
		if !strings.Contains(job, want) {
			t.Errorf("aliasd-smoke job missing %q:\n%s", want, job)
		}
	}
}
