package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"aliaslimit/internal/topo"
)

// buildTestWorld builds a small world for pipeline tests.
func buildTestWorld(t *testing.T, seed uint64) *topo.World {
	t.Helper()
	cfg := topo.Default()
	cfg.Scale = 0.08
	cfg.Seed = seed
	w, err := topo.Build(cfg)
	if err != nil {
		t.Fatalf("building world: %v", err)
	}
	return w
}

// requireSameDataset fails unless the two datasets are byte-identical:
// same name aside, every protocol's observation slice must match element for
// element, in order.
func requireSameDataset(t *testing.T, label string, want, got *Dataset) {
	t.Helper()
	if len(want.Obs) != len(got.Obs) {
		t.Fatalf("%s: protocol count differs: want %d, got %d", label, len(want.Obs), len(got.Obs))
	}
	for p, wantObs := range want.Obs {
		gotObs := got.Obs[p]
		if len(wantObs) != len(gotObs) {
			t.Fatalf("%s: %v observation count differs: want %d, got %d",
				label, p, len(wantObs), len(gotObs))
		}
		if !reflect.DeepEqual(wantObs, gotObs) {
			for i := range wantObs {
				if !reflect.DeepEqual(wantObs[i], gotObs[i]) {
					t.Fatalf("%s: %v observation %d differs: want %+v, got %+v",
						label, p, i, wantObs[i], gotObs[i])
				}
			}
			t.Fatalf("%s: %v observations differ", label, p)
		}
	}
	if want.NonStandardPortSSH != got.NonStandardPortSSH {
		t.Fatalf("%s: NonStandardPortSSH differs: want %d, got %d",
			label, want.NonStandardPortSSH, got.NonStandardPortSSH)
	}
}

// requireAscending fails unless each protocol's observations are strictly
// ascending by address: one observation per address, in address order.
func requireAscending(t *testing.T, ds *Dataset) {
	t.Helper()
	for p, obs := range ds.Obs {
		for i := 1; i < len(obs); i++ {
			if !obs[i-1].Addr.Less(obs[i].Addr) {
				t.Fatalf("%s %v: observation %d (%v) does not follow %v",
					ds.Name, p, i, obs[i].Addr, obs[i-1].Addr)
			}
		}
	}
}

// TestCollectActiveDeterministic is the race-focused pipeline test: for two
// world seeds, the concurrent streaming pipeline must produce Datasets
// byte-identical to the sequential baseline (Parallelism=1) and to itself on
// a re-run, across different worker counts, and each protocol's observations
// must be strictly ascending by address. Run under -race this also
// exercises the netsim/topo concurrency contract with all three protocol
// sweeps in flight at once.
func TestCollectActiveDeterministic(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := buildTestWorld(t, seed)
			baseline, err := CollectActive(w, ScanOptions{Workers: 8, Parallelism: 1})
			if err != nil {
				t.Fatalf("sequential CollectActive: %v", err)
			}
			if len(baseline.Obs) == 0 {
				t.Fatal("sequential CollectActive yielded no observations")
			}
			requireAscending(t, baseline)
			for _, opts := range []ScanOptions{
				{Workers: 8},                  // full protocol overlap
				{Workers: 64},                 // same, different worker count
				{Workers: 32, Parallelism: 2}, // bounded overlap
			} {
				opts := opts
				label := fmt.Sprintf("workers=%d,parallelism=%d", opts.Workers, opts.Parallelism)
				got, err := CollectActive(w, opts)
				if err != nil {
					t.Fatalf("%s: CollectActive: %v", label, err)
				}
				requireSameDataset(t, label, baseline, got)
			}
			// Re-run the fully concurrent configuration to catch
			// scheduling-order flakiness, not just worker-count effects.
			again, err := CollectActive(w, ScanOptions{Workers: 8})
			if err != nil {
				t.Fatalf("re-run CollectActive: %v", err)
			}
			requireSameDataset(t, "re-run", baseline, again)
		})
	}
}

// TestCollectCensysDeterministic covers the snapshot-vantage collector the
// same way: concurrent SSH+BGP sweeps must match the sequential run.
func TestCollectCensysDeterministic(t *testing.T) {
	w := buildTestWorld(t, 5)
	baseline, err := CollectCensys(w, ScanOptions{Workers: 8, Parallelism: 1})
	if err != nil {
		t.Fatalf("sequential CollectCensys: %v", err)
	}
	got, err := CollectCensys(w, ScanOptions{Workers: 32})
	if err != nil {
		t.Fatalf("concurrent CollectCensys: %v", err)
	}
	requireSameDataset(t, "censys", baseline, got)
}
