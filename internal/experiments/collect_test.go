package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
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
				{},                            // the shipped width, 4 × GOMAXPROCS
				{Workers: 1},                  // one goroutine per pool
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
	for _, opts := range []ScanOptions{{}, {Workers: 1}, {Workers: 32}} {
		label := fmt.Sprintf("censys workers=%d", opts.Workers)
		got, err := CollectCensys(w, opts)
		if err != nil {
			t.Fatalf("%s: CollectCensys: %v", label, err)
		}
		requireSameDataset(t, label, baseline, got)
	}
}

// TestScanWidthDefault pins the width a zero Workers gets: four workers per
// CPU the scheduler may use.
func TestScanWidthDefault(t *testing.T) {
	o, err := ScanOptions{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * runtime.GOMAXPROCS(0); o.Workers != want {
		t.Fatalf("default Workers = %d, want 4 × GOMAXPROCS = %d", o.Workers, want)
	}
	for _, n := range []int{1, 256, MaxWorkers} {
		if o, err := (ScanOptions{Workers: n}).withDefaults(); err != nil || o.Workers != n {
			t.Errorf("Workers %d: got %d, %v", n, o.Workers, err)
		}
	}
}

// TestScanWidthCeiling checks that a Workers above MaxWorkers is refused
// with an error naming it, before a sweep starts a pool of that width.
func TestScanWidthCeiling(t *testing.T) {
	cfg := topo.Default()
	cfg.Scale = 0.01
	w, err := topo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{MaxWorkers + 1, math.MaxInt} {
		_, err := CollectActive(w, ScanOptions{Workers: n})
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(n)) {
			t.Errorf("Workers %d: got error %v, want one naming the value", n, err)
		}
	}
	if _, err := MultiVantage(w, 1, ScanOptions{Workers: MaxWorkers + 1}); err == nil {
		t.Error("MultiVantage accepted a width above MaxWorkers")
	}
	if _, err := Stability(w, 0, 0, ScanOptions{Workers: MaxWorkers + 1}); err == nil {
		t.Error("Stability accepted a width above MaxWorkers")
	}
	if _, err := NewEnvSeries(SeriesOptions{Options: Options{Scan: ScanOptions{Workers: MaxWorkers + 1}}}); err == nil {
		t.Error("NewEnvSeries accepted a width above MaxWorkers")
	}
}
