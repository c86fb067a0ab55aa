package experiments

import (
	"reflect"
	"testing"

	"aliaslimit/internal/ident"
	"aliaslimit/internal/obslog"
)

// logSeriesOpts is seriesOpts plus a durable log in dir.
func logSeriesOpts(t *testing.T, dir string) (SeriesOptions, *obslog.Writer) {
	t.Helper()
	opts := seriesOpts()
	lg, err := obslog.Create(dir, obslog.RunMeta{Scenario: "series-test", Seed: opts.Topo.Seed, Scale: opts.Topo.Scale, Epochs: opts.Epochs}, obslog.Options{Sync: obslog.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	opts.Log = lg
	return opts, lg
}

// viewsFingerprint summarises every world-independent view of an
// environment — each dataset's partitions, address universes and
// non-standard-port count, the unions and the dual-stack sets — for
// comparing a disk replay against the in-RAM original.
func viewsFingerprint(env *Env) map[string]interface{} {
	fp := map[string]interface{}{
		"union-v4": env.UnionFamilyNonSingleton(true),
		"union-v6": env.UnionFamilyNonSingleton(false),
		"dual":     env.DualStackSets(),
	}
	sels := map[string]*bool{"all": nil, "v4": V4, "v6": V6}
	for _, ds := range []*Dataset{env.Active, env.Censys, env.Both} {
		fp[ds.Name+"-nonstd-ssh"] = ds.NonStandardPortSSH
		for sel, v4 := range sels {
			fp[ds.Name+"-addrs-"+sel] = ds.AllAddrs(v4)
		}
		for _, p := range ident.Protocols {
			fp[ds.Name+"-"+p.String()] = ds.NonSingletonSets(p)
			for sel, v4 := range sels {
				fp[ds.Name+"-"+p.String()+"-addrs-"+sel] = ds.Addrs(p, v4)
			}
		}
	}
	return fp
}

// TestReplayMatchesInRAM pins the tentpole recovery invariant: every epoch
// replayed from the observation log rebuilds the exact partition views of the
// in-RAM run.
func TestReplayMatchesInRAM(t *testing.T) {
	dir := t.TempDir()
	opts, lg := logSeriesOpts(t, dir)
	s, err := NewEnvSeries(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []map[string]interface{}
	for e := 0; e < opts.Epochs; e++ {
		ep, err := s.Advance()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, viewsFingerprint(ep.Env))
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < opts.Epochs; e++ {
		snap, err := obslog.Replay(dir, e)
		if err != nil {
			t.Fatal(err)
		}
		renv, err := ReplayEnv(snap)
		if err != nil {
			t.Fatal(err)
		}
		got := viewsFingerprint(renv)
		for key, w := range want[e] {
			if !reflect.DeepEqual(got[key], w) {
				t.Errorf("epoch %d view %s: replay diverges from in-RAM run", e, key)
			}
		}
	}
}

// TestSkipEpochReplaysChurnExactly pins the resume world-replay invariant:
// skipping epochs mutates the world identically to running them, so a
// subsequent live epoch reproduces the original datasets bit for bit and
// the churn draw state matches at every boundary.
func TestSkipEpochReplaysChurnExactly(t *testing.T) {
	opts := seriesOpts()
	full, err := NewEnvSeries(opts)
	if err != nil {
		t.Fatal(err)
	}
	var fullStates []uint64
	var lastEp *Epoch
	for e := 0; e < opts.Epochs; e++ {
		ep, err := full.Advance()
		if err != nil {
			t.Fatal(err)
		}
		fullStates = append(fullStates, full.World.ChurnDrawState())
		lastEp = ep
	}

	skip, err := NewEnvSeries(opts)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < opts.Epochs-1; e++ {
		stats, err := skip.SkipEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Epoch != e {
			t.Fatalf("SkipEpoch reported epoch %d, want %d", stats.Epoch, e)
		}
		if got := skip.World.ChurnDrawState(); got != fullStates[e] {
			t.Fatalf("draw state after skipped epoch %d diverges from full run", e)
		}
	}
	ep, err := skip.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if got := skip.World.ChurnDrawState(); got != fullStates[opts.Epochs-1] {
		t.Fatal("draw state after resumed live epoch diverges from full run")
	}
	for _, p := range ident.Protocols {
		if !reflect.DeepEqual(ep.Env.Active.Obs[p], lastEp.Env.Active.Obs[p]) {
			t.Errorf("%s active observations diverge after skip-resume", p)
		}
		if !reflect.DeepEqual(ep.Env.Censys.Obs[p], lastEp.Env.Censys.Obs[p]) {
			t.Errorf("%s censys observations diverge after skip-resume", p)
		}
	}
	if !reflect.DeepEqual(ep.Truth, lastEp.Truth) {
		t.Error("ground truth diverges after skip-resume")
	}
}
