package aliaslimit_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciJob returns the text of one job of the CI workflow, from its name line
// to the next job. It skips the test when the workflow is not readable and
// fails it when the job is missing.
func ciJob(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Skipf("ci.yml not readable: %v", err)
	}
	text := string(data)
	idx := strings.Index(text, "\n  "+name+":\n")
	if idx < 0 {
		t.Fatalf("ci.yml has no %s job", name)
	}
	job := text[idx+1:]
	if next := regexp.MustCompile(`\n  [a-z-]+:\n`).FindStringIndex(job); next != nil {
		job = job[:next[0]]
	}
	return job
}

// TestCIPerfbenchJob pins the CI job that builds and tests the benchmark
// harness: perfbench/ is its own module, so the root go test ./... never
// compiles it, and only this job notices a change that breaks an internal
// API the harness imports. The job must vet and test the module and must not
// be limited to some events.
func TestCIPerfbenchJob(t *testing.T) {
	job := ciJob(t, "perfbench")
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
	job := ciJob(t, "fuzz")
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

// TestCITopoBuildBench pins the bench-smoke step that prices world
// generation (BenchmarkTopoBuild) at one CPU and at every CPU, so its time,
// bytes and allocations per build land in bench-smoke.txt on every event.
func TestCITopoBuildBench(t *testing.T) {
	job := ciJob(t, "bench-smoke")
	step := "      - name: World-generation benchmark (time, bytes and allocations per build; GOMAXPROCS 1 vs every CPU)\n" +
		"        run: go test -run=NONE -bench=BenchmarkTopoBuild -benchtime=1x -cpu 1,$(nproc) . | tee -a bench-smoke.txt\n"
	if !strings.Contains(job, step) {
		t.Errorf("bench-smoke job lacks the world-generation step:\n%s", job)
	}
	if strings.Contains(job, "\n    if:") {
		t.Errorf("bench-smoke job runs only on some events:\n%s", job)
	}
}

// TestCIColdViewsBench pins the bench-smoke step that prices the first read
// of every scored view of a sealed environment (BenchmarkColdViews), so its
// time and allocations land in bench-smoke.txt on every event.
func TestCIColdViewsBench(t *testing.T) {
	job := ciJob(t, "bench-smoke")
	step := "      - name: Cold analysis views benchmark (first read of every scored view)\n" +
		"        run: go test -run=NONE -bench=BenchmarkColdViews -benchtime=20x ./internal/experiments | tee -a bench-smoke.txt\n"
	if !strings.Contains(job, step) {
		t.Errorf("bench-smoke job lacks the cold-views step:\n%s", job)
	}
	if strings.Contains(job, "\n    if:") {
		t.Errorf("bench-smoke job runs only on some events:\n%s", job)
	}
}
