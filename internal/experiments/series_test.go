package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"aliaslimit/internal/topo"
)

// seriesOpts is the tiny-world base configuration for series tests.
func seriesOpts() SeriesOptions {
	cfg := topo.Default()
	cfg.Scale = 0.05
	return SeriesOptions{
		Options:    Options{Topo: cfg},
		Epochs:     3,
		EpochChurn: topo.EpochChurn{Renumber: 0.2, Reboot: 0.1, WireDown: 0.1, WireUp: 0.5},
	}
}

// TestEnvSeriesFirstEpochMatchesBuildEnv pins the refactor: BuildEnv is the
// Epochs=1 special case, so a series' first epoch must reproduce it exactly.
func TestEnvSeriesFirstEpochMatchesBuildEnv(t *testing.T) {
	opts := seriesOpts()
	env, err := BuildEnv(opts.Options)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewEnvSeries(opts)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := s.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Stats.Epoch != 0 || ep.Stats.EpochChurnStats != (topo.EpochChurnStats{}) {
		t.Fatalf("epoch 0 must precede any boundary churn: %+v", ep.Stats)
	}
	for _, pair := range []struct {
		name string
		a, b *Dataset
	}{
		{"Active", env.Active, ep.Env.Active},
		{"Censys", env.Censys, ep.Env.Censys},
		{"Union", env.Both, ep.Env.Both},
	} {
		if !reflect.DeepEqual(pair.a.Obs, pair.b.Obs) {
			t.Fatalf("%s observations differ between BuildEnv and series epoch 0", pair.name)
		}
	}
}

// TestEnvSeriesDeterministicAcrossGOMAXPROCS runs a full three-epoch series
// at GOMAXPROCS 1, at the default and at 8 and requires identical
// observations and churn stats in every epoch — the longitudinal extension
// of the collection determinism contract.
func TestEnvSeriesDeterministicAcrossGOMAXPROCS(t *testing.T) {
	type epochSummary struct {
		stats EpochStats
		obs   map[string]int
	}
	run := func(procs int) []epochSummary {
		setGOMAXPROCS(t, procs)
		s, err := NewEnvSeries(seriesOpts())
		if err != nil {
			t.Fatal(err)
		}
		var out []epochSummary
		for i := 0; i < s.Epochs(); i++ {
			ep, err := s.Advance()
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[string]int)
			for proto, obs := range ep.Env.Both.Obs {
				counts[proto.String()] = len(obs)
			}
			out = append(out, epochSummary{stats: ep.Stats, obs: counts})
		}
		return out
	}

	def := runtime.GOMAXPROCS(0)
	ref := run(1)
	for _, procs := range []int{def, 8} {
		if got := run(procs); !reflect.DeepEqual(ref, got) {
			t.Fatalf("series differs between GOMAXPROCS=1 and =%d:\n%+v\n%+v", procs, ref, got)
		}
	}
}

// TestEnvSeriesEpochsChurnAndStayScorable advances all epochs and checks the
// boundary churn actually fired and each epoch carries its own truth
// snapshot, decoupled from the world's live (mutating) truth.
func TestEnvSeriesEpochsChurnAndStayScorable(t *testing.T) {
	s, err := NewEnvSeries(seriesOpts())
	if err != nil {
		t.Fatal(err)
	}
	var epochs []*Epoch
	for i := 0; i < s.Epochs(); i++ {
		ep, err := s.Advance()
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, ep)
	}
	if _, err := s.Advance(); err == nil {
		t.Fatal("series allowed advancing past the configured epochs")
	}
	churned := 0
	for _, ep := range epochs[1:] {
		churned += ep.Stats.Renumbered + ep.Stats.Rebooted + ep.Stats.WiresDown
	}
	if churned == 0 {
		t.Fatal("no boundary churn across a three-epoch storm series")
	}
	// Epoch truths must be snapshots: the first epoch's truth keeps addresses
	// the storm later took away from their devices.
	first, last := epochs[0].Truth, epochs[len(epochs)-1].Truth
	if reflect.DeepEqual(first.SSHAddrs, last.SSHAddrs) {
		t.Fatal("SSH truth identical across a churn-storm series — snapshots not independent")
	}
	for _, ep := range epochs {
		if len(ep.Truth.SSHAddrs) == 0 || len(ep.Truth.SNMPAddrs) == 0 {
			t.Fatalf("epoch %d truth snapshot empty", ep.Stats.Epoch)
		}
		if len(ep.Env.Both.Obs) == 0 {
			t.Fatalf("epoch %d collected nothing", ep.Stats.Epoch)
		}
	}
}
