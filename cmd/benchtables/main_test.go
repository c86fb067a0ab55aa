package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"strings"
	"testing"
)

// TestRunSingleTable regenerates one table at tiny scale and sanity-checks
// the rendering.
func TestRunSingleTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "0.05", "-seed", "2", "-workers", "16", "-table", "1"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 1") {
		t.Fatalf("missing table header:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "world built and measured") {
		t.Fatalf("missing build summary on stderr: %s", stderr.String())
	}
}

// TestRunBenchJSON exercises the machine-readable perf-baseline mode at
// tiny scale and validates the JSON shape.
func TestRunBenchJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "0.05", "-seed", "2", "-workers", "16", "-benchjson", "-"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	var rep struct {
		Scale   float64 `json:"scale"`
		Results []struct {
			Name    string  `json:"name"`
			NsPerOp float64 `json:"ns_per_op"`
			Ops     int     `json:"ops"`
		} `json:"results"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if rep.Scale != 0.05 {
		t.Errorf("scale = %v", rep.Scale)
	}
	want := map[string]bool{
		"run_full": false, "render_all_cold": false, "render_all_warm": false,
		"grouping_union_ssh": false, "merge_union_v4": false,
		"obslog_append": false, "obslog_replay": false,
		"stream_collect": false, "stream_replay_group": false,
		"table3_render": false, "figure6_render": false,
		"resolve_batch_group": false, "resolve_batch_merge": false,
	}
	for _, r := range rep.Results {
		if _, tracked := want[r.Name]; tracked {
			want[r.Name] = true
		}
		if r.NsPerOp <= 0 || r.Ops <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Name, r)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("measurement %s missing from report", name)
		}
	}
}

// TestRunUnknownTable checks render errors surface as errors and -h as a
// clean help request.
func TestRunUnknownTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-table", "99"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: want flag.ErrHelp, got %v", err)
	}
}

// TestRunBackendFlag: with one resolver there is no backend to pick, so
// -backend and -shard-workers are unknown flags and exit with the usage
// error.
func TestRunBackendFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0.05", "-backend", "batch", "-table", "4"},
		{"-scale", "0.05", "-backend", "distributed", "-table", "4"},
		{"-scale", "0.05", "-shard-workers", "2", "-table", "4"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); !errors.Is(err, errBadFlags) {
			t.Errorf("%v: want errBadFlags, got %v", args, err)
		}
	}
}

// TestBackendValidationMessage pins how a retired -backend fails: with the
// flag package's message naming the flag, before any world is built.
func TestBackendValidationMessage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-backend", "bogus", "-table", "1"}, &stdout, &stderr)
	if !errors.Is(err, errBadFlags) {
		t.Fatalf("-backend: want errBadFlags, got %v", err)
	}
	if !strings.HasPrefix(stderr.String(), "flag provided but not defined: -backend\n") {
		t.Fatalf("stderr = %q, want the unknown-flag message for -backend", stderr.String())
	}
}

// TestStreamCollectFlagCombos pins the out-of-core flag contract: the
// replay readahead is fixed, so -mem-budget is an unknown flag, rejected
// by flag parsing with or without -stream-collect; and
// -stream-collect shapes study runs only — the bench harness measures the
// streamed path through its own entries, so combining the flag with
// -benchjson or the compare gate is rejected.
func TestStreamCollectFlagCombos(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"-mem-budget", "1048576", "-table", "1"},
		{"-stream-collect", "-mem-budget", "1048576", "-table", "1"},
	} {
		stderr.Reset()
		if err := run(args, &stdout, &stderr); !errors.Is(err, errBadFlags) {
			t.Fatalf("%v: want errBadFlags, got %v", args, err)
		}
		if !strings.HasPrefix(stderr.String(), "flag provided but not defined: -mem-budget\n") {
			t.Errorf("%v: stderr = %q, want the unknown-flag message for -mem-budget", args, stderr.String())
		}
	}
	for _, extra := range [][]string{
		{"-benchjson", "-"},
		{"-compare", "x.json"},
		{"-against", "x.json"},
	} {
		stderr.Reset()
		args := append([]string{"-stream-collect"}, extra...)
		if err := run(args, &stdout, &stderr); !errors.Is(err, errBadFlags) {
			t.Fatalf("-stream-collect with %v: want errBadFlags, got %v", extra, err)
		}
	}
}
