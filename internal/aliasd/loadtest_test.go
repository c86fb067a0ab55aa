package aliasd

import (
	"strings"
	"testing"
)

// TestLoadTestQuick is the end-to-end tentpole check: concurrent tenants
// ingest a real measured corpus over HTTP in shuffled orders and every
// tenant's sets_digest equals the sealed environment's digest of the same
// observations. Runs at a tiny scale; the CI aliasd-smoke job runs the same
// harness at the gate scale via cmd/aliasd -loadtest.
func TestLoadTestQuick(t *testing.T) {
	rep, err := RunLoadTest(Config{}, LoadOptions{
		Clients:  4,
		Requests: 8,
		Batch:    250,
		Scale:    0.05,
		Seed:     1,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Observations == 0 {
		t.Fatal("empty corpus")
	}
	if len(rep.SetsDigest) != 64 {
		t.Fatalf("report digest %q not a sha256 hex string", rep.SetsDigest)
	}
	classes := map[string]bool{}
	for _, l := range rep.Latencies {
		classes[l.Class] = true
		if l.Count == 0 {
			t.Fatalf("latency class %s has no samples", l.Class)
		}
		if l.P50ms > l.P99ms {
			t.Fatalf("latency class %s: p50 %v > p99 %v", l.Class, l.P50ms, l.P99ms)
		}
	}
	for _, want := range []string{"session", "ingest", "flush", "query"} {
		if !classes[want] {
			t.Fatalf("no %s latency class in %+v", want, rep.Latencies)
		}
	}
	names := map[string]bool{}
	for _, e := range rep.Results {
		names[e.Name] = true
		if e.NsPerOp < 0 || e.Ops <= 0 {
			t.Fatalf("bad bench entry %+v", e)
		}
		if !strings.HasPrefix(e.Name, "aliasd_") {
			t.Fatalf("bench entry %q not namespaced", e.Name)
		}
	}
	for _, want := range []string{"aliasd_ingest_p50", "aliasd_ingest_p99", "aliasd_query_p50", "aliasd_query_p99"} {
		if !names[want] {
			t.Fatalf("missing gate entry %s in %v", want, names)
		}
	}
}
