// Aliasd: run the resolution daemon in-process, stream a measured corpus
// into two tenant sessions in different orders, and show that both
// converge to the same sets_digest — resolution as a service, with the
// same byte-determinism contract as the batch library.
//
//	go run ./examples/aliasd
//	go run ./examples/aliasd -scale 0.05    # tiny smoke-test world
package main

import (
	"flag"
	"fmt"
	"log"

	"aliaslimit"
)

func main() {
	scale := flag.Float64("scale", 0.1, "corpus world scale")
	flag.Parse()

	// The load-test harness is the shortest path to a full daemon round
	// trip: it builds the corpus, boots the HTTP server on a loopback port,
	// drives concurrent tenants through session create → NDJSON ingest →
	// flush → queries, and checks every tenant's final digest against the
	// batch resolver's answer for the same observations.
	rep, err := aliaslimit.RunAliasdLoadTest(aliaslimit.AliasdConfig{}, aliaslimit.AliasdLoadOptions{
		Clients:  2,
		Requests: 6,
		Batch:    300,
		Scale:    *scale,
		Seed:     7,
	})
	if err != nil {
		log.Fatalf("aliasd: %v", err)
	}

	fmt.Printf("daemon served %d tenants, %d observations each (%d ingest retries under backpressure)\n",
		rep.Clients, rep.Observations, rep.Retries)
	fmt.Printf("every tenant converged to sets_digest %s — byte-identical to the batch resolver\n\n",
		rep.SetsDigest[:16])

	fmt.Println("request latency percentiles:")
	for _, l := range rep.Latencies {
		fmt.Printf("  %-8s n=%-4d p50=%7.2fms p90=%7.2fms p99=%7.2fms\n",
			l.Class, l.Count, l.P50ms, l.P90ms, l.P99ms)
	}
}
