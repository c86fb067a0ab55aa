package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/scenario"
	"aliaslimit/internal/topo"
)

// Longitudinal defaults: the churn-storm preset over three epochs.
const (
	longPreset = "churn-storm"
	longScale  = 0.08
	longEpochs = 3
)

// runLongitudinal measures churn-storm over three epochs, durable (a log
// directory with the default fsync policy) and out-of-core (observations
// spill to the log and each epoch is sealed by replaying it). The
// checkpoint hook reads and digests every scored partition before the
// manifest commits the epoch, and each epoch is scored against its
// ground-truth snapshot with the MIDAR tally, as a longitudinal scenario run
// does. The timed part ends with the check a resume makes: every committed
// epoch is read back frame by frame and re-resolved, and its digest must
// match the manifest's.
func runLongitudinal(rc *runCtx) (*outcome, error) {
	p, ok := scenario.Lookup(longPreset)
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", longPreset)
	}
	scale := rc.scale
	if scale == 0 {
		scale = longScale
	}
	churn := p.EpochChurn
	if churn == (topo.EpochChurn{}) {
		churn = scenario.DefaultEpochChurn
	}
	sink := &ingestSink{lat: rc.lat}
	// seriesFor is the preset's series on the world of iteration i, built
	// the way the scenario engine builds it.
	seriesFor := func(i int) experiments.SeriesOptions {
		cfg := topo.Default()
		cfg.Seed, cfg.Scale = worldSeed(rc.seed, i), scale
		if p.Tune != nil {
			p.Tune(&cfg)
		}
		faults := p.Faults
		faults.Seed = cfg.Seed
		return experiments.SeriesOptions{
			Options: experiments.Options{
				Topo:          cfg,
				Scan:          experiments.ScanOptions{Seed: cfg.Seed, Sink: sink},
				ChurnFraction: p.Churn,
				Faults:        faults,
				StreamCollect: true,
			},
			Epochs:     longEpochs,
			EpochChurn: churn,
		}
	}
	var series experiments.SeriesOptions
	out := &outcome{params: map[string]any{
		"preset": longPreset, "scale": scale, "epochs": longEpochs, "backend": "batch",
		"collect": "stream", "durable": true, "fsync": "default", "worlds": family,
	}}
	want, shipped := goldenFor("longitudinal", rc.seed, rc.scale)
	// A traced run keeps the last iteration's final epoch (and its log) open
	// for the probe's render; release closes them.
	var last *experiments.Env
	release := func() {}
	defer func() { release() }()
	if err := loop(rc.budget, rc.minIter(), func(i int) error {
		world := i % family
		series = seriesFor(world)
		cfg := series.Topo
		tr := rc.iterTracer(i)
		run := fmt.Sprintf("iter-%d", i)
		lat := rc.lat
		if tr != nil {
			lat = nil
		}
		sink.lat = lat
		dir := filepath.Join(rc.tmp, run)

		// Set-up: the log and the world.
		freeMemory()
		rc.mem.window()
		setup := tr.root(run, phaseSetup)
		t0 := time.Now()
		lg, err := obslog.Create(dir, obslog.RunMeta{
			Scenario: longPreset, Seed: cfg.Seed, Scale: scale, Backend: "batch", Epochs: longEpochs,
		}, obslog.Options{})
		if err != nil {
			return err
		}
		opts := series
		opts.Log = lg
		opts.Backend = resolver.NewBatch()
		loopSc := tr.root(run, phaseLoop)
		root := -1
		digests := make([]string, 0, longEpochs)
		opts.EpochDigest = func(ep *experiments.Epoch) (string, error) {
			d := epochDigest(loopSc.child(root), ep.Env, lat)
			digests = append(digests, d)
			return d, nil
		}
		var s *experiments.EnvSeries
		id := setup.do("topo.build", func() { s, err = experiments.NewEnvSeries(opts) })
		out.setup.addTime(world, t0, time.Since(t0))
		if err != nil {
			lg.Close()
			return err
		}
		setup.count(id, "devices", float64(s.World.Fabric.NumDevices()))
		setup.count(id, "addrs", float64(len(s.World.V4Universe())+len(s.World.V6Bound())))
		cleanup := func() {
			s.Close()
			lg.Close()
			os.RemoveAll(dir)
		}

		start := time.Now()
		root = loopSc.begin("iteration")
		sc := loopSc.child(root)
		var final *experiments.Env
		for e := 0; e < longEpochs; e++ {
			sink.reset()
			var ep *experiments.Epoch
			id := sc.do("experiments.advance", func() { ep, err = s.Advance() })
			if err != nil {
				cleanup()
				return err
			}
			for _, p := range ident.Protocols {
				sc.count(id, "obs_"+protoKey(p), sink.count(p))
			}
			scoreEnv(sc, ep.Env, ep.Truth)
			var mr *experiments.MIDARResult
			id = sc.do("midar.verify", func() { mr = ep.Env.MIDARRun(0, midar.Config{}) })
			sc.count(id, "sets", float64(len(mr.Sample)))
			if e < longEpochs-1 {
				ep.Env.Close()
			} else {
				final = ep.Env
			}
		}
		replayed, err := checkLog(rc, sc, dir, digests)
		sc.end(root)
		if tr == nil {
			out.wall.addTime(world, start, time.Since(start))
			out.mem.add(world, rc.mem.window())
		} else {
			out.traced.addTime(world, start, time.Since(start))
		}
		if err != nil {
			final.Close()
			cleanup()
			return err
		}

		// Correctness beyond the manifest: the shipped digests.
		for e, d := range replayed {
			if i < family {
				out.digests = append(out.digests, d)
			}
			if shipped {
				rc.ops.expect(fmt.Sprintf("longitudinal world %d epoch %d vs shipped digest", world, e), d, want[world*longEpochs+e])
			}
		}
		release()
		release = func() {
			final.Close()
			cleanup()
		}
		if rc.tr == nil {
			release()
			release = func() {}
		} else {
			last = final
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		twin := series
		twin.Scan.Sink = nil
		twin.StreamCollect = false
		if err := probeLayers(rc, twin, last); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkLog verifies a durable run the way a resume does: the manifest must
// have committed every epoch with the digest the checkpoint hook computed,
// and each committed epoch, read back frame by frame and re-resolved through
// the streaming backend, must reproduce that digest. It returns the
// manifest's digests.
func checkLog(rc *runCtx, sc scope, dir string, hook []string) ([]string, error) {
	man, err := obslog.ReadManifest(dir)
	if err != nil {
		rc.ops.add(err)
		return nil, err
	}
	if man.EpochsDone != len(hook) {
		err := fmt.Errorf("manifest committed %d of %d epochs", man.EpochsDone, len(hook))
		rc.ops.add(err)
		return nil, err
	}
	var out []string
	for e, rec := range man.Epochs {
		out = append(out, rec.SetsDigest)
		rc.ops.expect(fmt.Sprintf("longitudinal epoch %d manifest vs checkpoint hook", e), rec.SetsDigest, hook[e])
		obs, err := replayEpoch(sc, dir, e)
		if err != nil {
			rc.ops.add(err)
			return nil, err
		}
		re, err := streamDigest(sc, func(observe func(alias.Observation)) error {
			for _, o := range obs {
				observe(o)
			}
			return nil
		})
		rc.ops.add(err)
		if err == nil {
			rc.ops.expect(fmt.Sprintf("longitudinal epoch %d manifest vs log replay", e), rec.SetsDigest, re)
		}
	}
	countLogBytes(sc, dir)
	return out, nil
}
