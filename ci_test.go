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
