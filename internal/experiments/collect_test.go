package experiments

import (
	"fmt"
	"reflect"
	"runtime"
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

// setGOMAXPROCS sets GOMAXPROCS to n until the test ends, when t.Cleanup
// restores the value it replaced. No test in this package calls t.Parallel,
// so changing the process-wide setting is safe.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestCollectActiveDeterministic is the race-focused pipeline test: for two
// world seeds, the concurrent streaming pipeline must produce Datasets
// byte-identical at GOMAXPROCS 1 (4-wide scan pools), at the default and at
// 8 (32-wide pools), and on a re-run, and each protocol's observations must
// be strictly ascending by address. Run under -race this also exercises the
// netsim/topo concurrency contract with all three protocol sweeps in flight
// at once.
func TestCollectActiveDeterministic(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := buildTestWorld(t, seed)
			def := runtime.GOMAXPROCS(0)
			setGOMAXPROCS(t, 1)
			baseline, err := CollectActive(w, ScanOptions{})
			if err != nil {
				t.Fatalf("GOMAXPROCS=1 CollectActive: %v", err)
			}
			if len(baseline.Obs) == 0 {
				t.Fatal("GOMAXPROCS=1 CollectActive yielded no observations")
			}
			requireAscending(t, baseline)
			// The default runs twice to catch scheduling-order flakiness,
			// not just width effects.
			for _, procs := range []int{def, 8, def} {
				setGOMAXPROCS(t, procs)
				label := fmt.Sprintf("GOMAXPROCS=%d", procs)
				got, err := CollectActive(w, ScanOptions{})
				if err != nil {
					t.Fatalf("%s: CollectActive: %v", label, err)
				}
				requireSameDataset(t, label, baseline, got)
			}
		})
	}
}

// TestCollectCensysDeterministic covers the snapshot-vantage collector the
// same way: its concurrent SSH+BGP sweeps must match at every GOMAXPROCS.
func TestCollectCensysDeterministic(t *testing.T) {
	w := buildTestWorld(t, 5)
	def := runtime.GOMAXPROCS(0)
	setGOMAXPROCS(t, 1)
	baseline, err := CollectCensys(w, ScanOptions{})
	if err != nil {
		t.Fatalf("GOMAXPROCS=1 CollectCensys: %v", err)
	}
	for _, procs := range []int{def, 8} {
		setGOMAXPROCS(t, procs)
		label := fmt.Sprintf("censys GOMAXPROCS=%d", procs)
		got, err := CollectCensys(w, ScanOptions{})
		if err != nil {
			t.Fatalf("%s: CollectCensys: %v", label, err)
		}
		requireSameDataset(t, label, baseline, got)
	}
}

// TestScanWidthDefault pins the scan width: four workers per CPU the
// scheduler may use.
func TestScanWidthDefault(t *testing.T) {
	for _, procs := range []int{1, 8} {
		setGOMAXPROCS(t, procs)
		if got := scanWidth(); got != 4*procs {
			t.Errorf("GOMAXPROCS %d: scanWidth() = %d, want %d", procs, got, 4*procs)
		}
	}
}
