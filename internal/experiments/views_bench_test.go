package experiments

import (
	"sync"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/topo"
)

// coldViewsSeed and coldViewsScale name the world BenchmarkColdViews reads:
// world 0 of the benchmark harness's seed-1 study (perfbench/ derives each
// study world's seed from the run seed; this is world 0's at run seed 1).
const (
	coldViewsSeed  = 10074027748682574540
	coldViewsScale = 0.15
)

var (
	coldOnce sync.Once
	coldEnv  *Env
	coldErr  error
)

// coldViewsEnv builds and measures the benchmark world once per process.
func coldViewsEnv(b *testing.B) *Env {
	b.Helper()
	coldOnce.Do(func() {
		cfg := topo.Default()
		cfg.Seed, cfg.Scale = coldViewsSeed, coldViewsScale
		coldEnv, coldErr = BuildEnv(Options{Topo: cfg, Scan: ScanOptions{Seed: cfg.Seed}})
	})
	if coldErr != nil {
		b.Fatalf("BuildEnv: %v", coldErr)
	}
	return coldEnv
}

// resealed builds fresh datasets and an Env from e's observations, with
// every view cold, as ReplayEnv builds one from a log snapshot.
func resealed(e *Env) *Env {
	var a, c [numProto][]alias.Observation
	for _, p := range ident.Protocols {
		a[p], c[p] = e.Active.Obs[p], e.Censys.Obs[p]
	}
	active, censys := newDataset("Active", a), newDataset("Censys", c)
	return newEnv(e.World, active, censys, Union("Union", active, censys))
}

// coldReads makes the first read of every scored view, in the order the
// benchmark harness's partition reads make them: the union SSH and BGP
// groups, the active SNMPv3 groups, both family unions and the dual-stack
// sets. It returns the number of sets read.
func coldReads(e *Env) int {
	return len(e.Both.NonSingletonSets(ident.SSH)) +
		len(e.Both.NonSingletonSets(ident.BGP)) +
		len(e.Active.NonSingletonSets(ident.SNMP)) +
		len(e.UnionFamilyNonSingleton(true)) + len(e.UnionFamilyNonSingleton(false)) +
		len(e.DualStackSets())
}

// BenchmarkColdViews times the first read of every scored view of a sealed
// environment: each op builds fresh datasets and an Env from the benchmark
// world's observations outside the timer, then makes coldReads.
func BenchmarkColdViews(b *testing.B) {
	e := coldViewsEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	sets := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := resealed(e)
		b.StartTimer()
		sets = coldReads(fresh)
	}
	b.ReportMetric(float64(sets), "sets")
}
