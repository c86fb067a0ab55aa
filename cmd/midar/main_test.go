package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"
)

// TestRunTinyMIDAR exercises flag parsing and a tiny-scale end-to-end run of
// the IPID baseline pipeline.
func TestRunTinyMIDAR(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "0.05", "-seed", "2", "-sample", "5"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"candidate SSH alias sets",
		"IPID counter census",
		"verification:",
		"simulated measurement time elapsed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
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
