package aliaslimit_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPerfbenchJob pins the CI job that builds and tests the benchmark
// harness: perfbench/ is its own module, so the root go test ./... never
// compiles it, and only this job notices a change that breaks an internal
// API the harness imports. The job must vet and test the module and must not
// be limited to some events.
func TestCIPerfbenchJob(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	idx := strings.Index(text, "\n  perfbench:\n")
	if idx < 0 {
		t.Fatal("ci.yml has no perfbench job")
	}
	job := text[idx+1:]
	if next := regexp.MustCompile(`\n  [a-z-]+:\n`).FindStringIndex(job); next != nil {
		job = job[:next[0]]
	}
	if !strings.Contains(job, "run: cd perfbench && go vet ./... && go test ./...") {
		t.Errorf("perfbench job does not vet and test the perfbench module:\n%s", job)
	}
	if strings.Contains(job, "\n    if:") {
		t.Errorf("perfbench job runs only on some events:\n%s", job)
	}
}

// TestCIFuzzJob pins the CI job that fuzzes the obsfile decoder against its
// encoding/json reference, the SSH scanner against arbitrary server bytes,
// the simulated SSH server against arbitrary client bytes, the obslog
// EpochReader against arbitrary shard bytes, the BGP scanner against
// arbitrary speaker bytes and the SNMPv3 parser and agent against arbitrary
// datagrams: it must run FuzzRead, both FuzzScan targets, FuzzServe,
// FuzzEpochReader and FuzzParse for a bounded time on every event, and keep
// each package's failing input as an artifact. Only the upload steps
// may carry an if:, so that they run when a fuzz step fails.
func TestCIFuzzJob(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	idx := strings.Index(text, "\n  fuzz:\n")
	if idx < 0 {
		t.Fatal("ci.yml has no fuzz job")
	}
	job := text[idx+1:]
	if next := regexp.MustCompile(`\n  [a-z-]+:\n`).FindStringIndex(job); next != nil {
		job = job[:next[0]]
	}
	for _, want := range []string{
		"run: go test -run '^$' -fuzz '^FuzzRead$' -fuzztime 30s ./internal/obsfile",
		"run: go test -run '^$' -fuzz '^FuzzScan$' -fuzztime 30s -fuzzminimizetime 2s ./internal/sshwire",
		"run: go test -run '^$' -fuzz '^FuzzServe$' -fuzztime 30s -fuzzminimizetime 2s ./internal/sshwire",
		"run: go test -run '^$' -fuzz '^FuzzEpochReader$' -fuzztime 30s -fuzzminimizetime 2s ./internal/obslog",
		"run: go test -run '^$' -fuzz '^FuzzScan$' -fuzztime 30s -fuzzminimizetime 2s ./internal/bgp",
		"run: go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s -fuzzminimizetime 2s ./internal/snmpv3",
		"uses: actions/upload-artifact@v4",
		"path: internal/obsfile/testdata/fuzz",
		"path: internal/sshwire/testdata/fuzz",
		"path: internal/obslog/testdata/fuzz",
		"path: internal/bgp/testdata/fuzz",
		"path: internal/snmpv3/testdata/fuzz",
	} {
		if !strings.Contains(job, want) {
			t.Errorf("fuzz job missing %q:\n%s", want, job)
		}
	}
	if strings.Contains(job, "\n    if:") {
		t.Errorf("fuzz job runs only on some events:\n%s", job)
	}
	steps := strings.Split(job, "\n      - ")
	for _, step := range steps[1:] {
		conditional := strings.HasPrefix(step, "if:") || strings.Contains(step, "\n        if:")
		if conditional && !strings.Contains(step, "upload-artifact") {
			t.Errorf("a fuzz step other than the upload is conditional:\n%s", step)
		}
	}
}
