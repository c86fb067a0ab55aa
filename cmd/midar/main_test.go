package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden output from the current run:
//
//	go test ./cmd/midar -run TestRunTinyMIDAR -update
var update = flag.Bool("update", false, "rewrite the cmd/midar golden file")

// TestRunTinyMIDAR runs the IPID baseline end to end at a tiny scale and
// compares the whole report with a golden file: the class census, the tally
// (two confirmed sets and one split at this seed) and the simulated time.
func TestRunTinyMIDAR(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-seed", "1", "-sample", "20"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	path := filepath.Join("testdata", "scale0.05-seed1-sample20.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("report differs from %s:\n got:\n%s\nwant:\n%s", path, stdout.Bytes(), want)
	}
}

// TestRunMIDARBadFlags checks flag errors surface as usage errors, before
// any world is built, and -h as a clean help request.
func TestRunMIDARBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{{"-sample", "many"}, {"-sample", "-1"}} {
		if err := run(args, &stdout, &stderr); !errors.Is(err, errBadFlags) {
			t.Fatalf("%v: want errBadFlags, got %v", args, err)
		}
	}
	if stdout.Len() != 0 {
		t.Fatalf("bad flags wrote to stdout:\n%s", stdout.String())
	}
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: want flag.ErrHelp, got %v", err)
	}
}
