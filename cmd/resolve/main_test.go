package main

import (
	"bytes"
	"errors"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
)

// writeObsFile writes a small observation file with one two-address SSH
// alias pair and returns its path.
func writeObsFile(t *testing.T) string {
	t.Helper()
	id := ident.Identifier{Proto: ident.SSH, Digest: "feedface"}
	obs := []alias.Observation{
		{Addr: netip.MustParseAddr("192.0.2.1"), ID: id},
		{Addr: netip.MustParseAddr("192.0.2.2"), ID: id},
	}
	var buf bytes.Buffer
	if err := obsfile.Write(&buf, obs); err != nil {
		t.Fatalf("writing observations: %v", err)
	}
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
	return path
}

// TestRunResolve feeds a hand-built observation file through the resolver CLI
// and checks the inferred alias set shows up in the report.
func TestRunResolve(t *testing.T) {
	path := writeObsFile(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sets", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, "observations: SSH=2") {
		t.Fatalf("missing observation summary:\n%s", out)
	}
	if !strings.Contains(out, "set ") {
		t.Fatalf("-sets produced no set dump:\n%s", out)
	}
}

// update rewrites the golden files from the current output:
//
//	go test ./cmd/resolve -run TestRunResolveGolden -update
var update = flag.Bool("update", false, "rewrite the cmd/resolve golden files")

// TestRunResolveGolden pins the command's exact output, with and without
// -sets, over a fixture that covers all three protocols, both address
// families, a cross-protocol union in each family, a duplicate observation,
// and one dual-stack set.
func TestRunResolveGolden(t *testing.T) {
	fixture := filepath.Join("testdata", "fixture.jsonl")
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"fixture.golden", []string{fixture}},
		{"fixture-sets.golden", []string{"-sets", fixture}},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(tc.args, &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v (stderr: %s)", tc.args, err, stderr.String())
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("%v: output differs from %s:\ngot:\n%s\nwant:\n%s", tc.args, path, got, want)
		}
	}
}

// TestRunResolveErrors covers the no-arguments and missing-file error paths:
// the former is a usage error (exit 2 via errBadFlags), the latter a runtime
// failure.
func TestRunResolveErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); !errors.Is(err, errBadFlags) {
		t.Fatalf("no arguments: want errBadFlags, got %v", err)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Fatalf("usage line missing from stderr: %s", stderr.String())
	}
	err := run([]string{"/nonexistent/obs.jsonl"}, &stdout, &stderr)
	if err == nil || errors.Is(err, errBadFlags) {
		t.Fatalf("missing input file: want a runtime error, got %v", err)
	}
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: want flag.ErrHelp, got %v", err)
	}
}
