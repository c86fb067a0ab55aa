package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"strings"
	"testing"

	"aliaslimit/internal/obsfile"
)

// tinyScanSHA256 pins the SHA-256 of each vantage's stdout for TestRunTinyScan
// (seed 2, scale 0.05). Collection is deterministic at any GOMAXPROCS, so a
// change to the scan front that moves one observation byte fails here.
var tinyScanSHA256 = map[string]string{
	"active": "9fe00578db530823e9e2b48c41051662c005276b0810b7c315fc26bf996e359e",
	"censys": "d8d571a783a14682c2b34f9c639af3504b6ac8e437c4ce3223ed9e6cc69000e2",
}

// TestRunTinyScan exercises flag parsing and a tiny end-to-end collection for
// both vantage points, checking the emitted JSONL parses back and matches
// its pinned digest.
func TestRunTinyScan(t *testing.T) {
	for _, vantage := range []string{"active", "censys"} {
		vantage := vantage
		t.Run(vantage, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run([]string{"-scale", "0.05", "-seed", "2", "-vantage", vantage}, &stdout, &stderr)
			if err != nil {
				t.Fatalf("run: %v (stderr: %s)", err, stderr.String())
			}
			obs, err := obsfile.Read(bytes.NewReader(stdout.Bytes()))
			if err != nil {
				t.Fatalf("re-reading emitted JSONL: %v", err)
			}
			if len(obs) == 0 {
				t.Fatal("scan emitted no observations")
			}
			if !strings.Contains(stderr.String(), "emitted") {
				t.Fatalf("missing summary on stderr: %s", stderr.String())
			}
			sum := sha256.Sum256(stdout.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tinyScanSHA256[vantage] {
				t.Fatalf("stdout SHA-256 %s, pinned %s", got, tinyScanSHA256[vantage])
			}
		})
	}
}

// TestRunBadFlags covers the error paths: an unknown vantage, a scale that
// is not a finite positive number, and unparseable or retired flags must
// surface as errors, not os.Exit. The vantage is checked before the world is
// built.
func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-vantage", "nowhere", "-scale", "0.05"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown vantage accepted")
	}
	if strings.Contains(stderr.String(), "world:") {
		t.Fatalf("unknown vantage refused only after building the world: %s", stderr.String())
	}
	for _, scale := range []string{"NaN", "Inf", "-1"} {
		stderr.Reset()
		if err := run([]string{"-scale", scale}, &stdout, &stderr); err == nil {
			t.Errorf("-scale %s accepted (stderr: %s)", scale, stderr.String())
		}
	}
	// Scan width follows GOMAXPROCS; -workers and -parallelism are retired
	// and, like any unknown flag, exit with the usage error.
	for _, args := range [][]string{
		{"-scale", "not-a-number"},
		{"-scale", "0.05", "-workers", "16"},
		{"-scale", "0.05", "-parallelism", "1"},
	} {
		if err := run(args, &stdout, &stderr); !errors.Is(err, errBadFlags) {
			t.Errorf("%v: want errBadFlags, got %v", args, err)
		}
	}
}

// TestRunHelp checks -h surfaces as flag.ErrHelp (a clean exit, not a
// failure) with the usage text on stderr.
func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: want flag.ErrHelp, got %v", err)
	}
	if !strings.Contains(stderr.String(), "-vantage") {
		t.Fatalf("usage text missing from stderr: %s", stderr.String())
	}
}
