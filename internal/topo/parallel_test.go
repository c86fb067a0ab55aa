package topo

import (
	"reflect"
	"runtime"
	"testing"
)

// setGOMAXPROCS sets GOMAXPROCS to n until the test ends, when t.Cleanup
// restores the value it replaced. No test in this package calls t.Parallel,
// so changing the process-wide setting is safe.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestBuildParallelDeterministic asserts the plan/build/commit pipeline's
// central contract: worlds are byte-identical at every GOMAXPROCS, which
// sets the build's shard count. Two seeds, sequential (GOMAXPROCS 1) versus
// the default and heavily sharded (8).
func TestBuildParallelDeterministic(t *testing.T) {
	def := runtime.GOMAXPROCS(0)
	for _, seed := range []uint64{3, 9} {
		cfg := Default()
		cfg.Scale = 0.05
		cfg.Seed = seed

		setGOMAXPROCS(t, 1)
		a, err := Build(cfg)
		if err != nil {
			t.Fatalf("seed %d sequential Build: %v", seed, err)
		}
		procs := []int{def, 8}
		var worlds []*World
		for _, n := range procs {
			setGOMAXPROCS(t, n)
			b, err := Build(cfg)
			if err != nil {
				t.Fatalf("seed %d Build at GOMAXPROCS %d: %v", seed, n, err)
			}
			worlds = append(worlds, b)
		}

		for i, b := range worlds {
			if !reflect.DeepEqual(a.V4Universe(), b.V4Universe()) {
				t.Errorf("seed %d GOMAXPROCS %d: v4 universes differ (%d vs %d addrs)",
					seed, procs[i], len(a.V4Universe()), len(b.V4Universe()))
			}
			if !reflect.DeepEqual(a.V6Bound(), b.V6Bound()) {
				t.Errorf("seed %d GOMAXPROCS %d: v6 universes differ", seed, procs[i])
			}
			if !reflect.DeepEqual(a.AddrASN, b.AddrASN) {
				t.Errorf("seed %d GOMAXPROCS %d: AddrASN maps differ", seed, procs[i])
			}
			if !reflect.DeepEqual(a.PTR, b.PTR) {
				t.Errorf("seed %d GOMAXPROCS %d: PTR registries differ", seed, procs[i])
			}
			if !reflect.DeepEqual(a.Truth.SSHAddrs, b.Truth.SSHAddrs) {
				t.Errorf("seed %d GOMAXPROCS %d: SSH ground truth differs", seed, procs[i])
			}
			if !reflect.DeepEqual(a.Truth.BGPAddrs, b.Truth.BGPAddrs) {
				t.Errorf("seed %d GOMAXPROCS %d: BGP ground truth differs", seed, procs[i])
			}
			if !reflect.DeepEqual(a.Truth.SNMPAddrs, b.Truth.SNMPAddrs) {
				t.Errorf("seed %d GOMAXPROCS %d: SNMP ground truth differs", seed, procs[i])
			}
			if !reflect.DeepEqual(a.Truth.Fleets, b.Truth.Fleets) {
				t.Errorf("seed %d GOMAXPROCS %d: fleet ground truth differs", seed, procs[i])
			}
			if a.Fabric.NumDevices() != b.Fabric.NumDevices() {
				t.Errorf("seed %d GOMAXPROCS %d: device counts differ: %d vs %d",
					seed, procs[i], a.Fabric.NumDevices(), b.Fabric.NumDevices())
			}
		}
		// Churn must also replay identically: it walks the committed churn
		// records in order. It mutates the world, so it runs last.
		na := a.ApplyChurn(0.10, 1)
		for i, b := range worlds {
			if nb := b.ApplyChurn(0.10, 1); na != nb {
				t.Errorf("seed %d GOMAXPROCS %d: churn reassigned %d vs %d addresses", seed, procs[i], na, nb)
			}
		}
	}
}
