// Stability: the paper's future-work questions, answered on the simulator —
// how stable are SSH identifiers over weeks of address churn, how much does
// a second (or fourth) vantage point buy, and what do the classical
// techniques still contribute.
//
//	go run ./examples/stability
package main

import (
	"fmt"
	"log"
	"time"

	"aliaslimit/internal/experiments"
	"aliaslimit/internal/speedtrap"
	"aliaslimit/internal/topo"
)

func main() {
	cfg := topo.Default()
	cfg.Seed = 13
	cfg.Scale = 0.2

	// Identifier stability: scan, wait three simulated weeks with 5% of
	// dynamic addresses reassigned, rescan, compare per-address identifiers.
	world, err := topo.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := experiments.Stability(world, 21*24*time.Hour, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSH identifier stability over %v (5%% address churn):\n", res.Gap)
	fmt.Printf("  persisted: %d   changed: %d   gone: %d   new: %d\n",
		res.Persisted, res.Changed, res.Gone, res.New)
	fmt.Printf("  persistence rate: %.1f%%\n\n", 100*res.PersistenceRate())

	// Multi-vantage coverage (a fresh world: the stability run above moved
	// the clock and churned addresses).
	world2, err := topo.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := experiments.MultiVantage(world2, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderMultiVantage(rows))
	fmt.Println()

	// IPv6: how much can Speedtrap (fragment-ID) verify of what SSH finds?
	env, err := experiments.BuildEnv(experiments.Options{Topo: cfg})
	if err != nil {
		log.Fatal(err)
	}
	sv := env.ValidateWithSpeedtrap(40, speedtrap.Config{})
	fmt.Printf("Speedtrap verification of %d IPv6 SSH sets: confirmed=%d split=%d unverifiable=%d\n",
		sv.Sampled, sv.Confirmed, sv.Split, sv.Unverifiable)

	// And the DNS PTR baseline for dual-stack discovery.
	fmt.Println()
	fmt.Print(experiments.RenderPTRComparison(env.ComparePTRDualStack()))
}
