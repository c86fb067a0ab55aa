package main

import (
	"fmt"
	"net/netip"
	"time"

	"aliaslimit/internal/evaluate"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/topo"
)

// studyScale is the study's default world scale.
const studyScale = 0.15

// runStudy measures the paper's one-shot study on the baseline world with
// default options: in-RAM collection and the batch backend. Set-up is the
// world build; the timed part is both campaigns, every scored partition,
// the MIDAR tally, the ground-truth scoring, the sets digest and a cold
// render of every table and figure. Each iteration builds a fresh world from
// the next seed of the run's sequence (a campaign advances a world's clock,
// so a world serves one iteration), which spreads the run over several
// worlds instead of resting it on one.
func runStudy(rc *runCtx) (*outcome, error) {
	scale := rc.scale
	if scale == 0 {
		scale = studyScale
	}
	sink := &ingestSink{lat: rc.lat}
	var opts experiments.Options
	out := &outcome{params: map[string]any{
		"preset": "baseline", "scale": scale, "epochs": 1, "backend": "batch", "collect": "in-ram",
		"worlds": family,
	}}
	want, shipped := goldenFor("study", rc.seed, rc.scale)
	if err := loop(rc.budget, rc.minIter(), func(i int) error {
		tr := rc.iterTracer(i)
		run := fmt.Sprintf("iter-%d", i)
		cfg := topo.Default()
		world := i % family
		cfg.Seed, cfg.Scale = worldSeed(rc.seed, world), scale
		opts = experiments.Options{
			Topo:    cfg,
			Scan:    experiments.ScanOptions{Seed: cfg.Seed, Sink: sink},
			Backend: resolver.NewBatch(),
		}

		freeMemory()
		rc.mem.window()
		setup := tr.root(run, phaseSetup)
		var series *experiments.EnvSeries
		var err error
		t0 := time.Now()
		id := setup.do("topo.build", func() { series, err = experiments.NewEnvSeries(experiments.SeriesOptions{Options: opts}) })
		out.setup.addTime(world, t0, time.Since(t0))
		if err != nil {
			return err
		}
		defer series.Close()
		setup.count(id, "devices", float64(series.World.Fabric.NumDevices()))
		setup.count(id, "addrs", float64(len(series.World.V4Universe())+len(series.World.V6Bound())))

		lat := rc.lat
		if tr != nil {
			lat = nil // traced iterations feed no end-to-end figure
		}
		sink.lat = lat
		loopSc := tr.root(run, phaseLoop)
		start := time.Now()
		root := loopSc.begin("iteration")
		sc := loopSc.child(root)
		sink.reset()
		var ep *experiments.Epoch
		id = sc.do("experiments.advance", func() { ep, err = series.Advance() })
		if err != nil {
			return err
		}
		for _, p := range ident.Protocols {
			sc.count(id, "obs_"+protoKey(p), sink.count(p))
		}
		env := ep.Env
		defer env.Close()
		partitionReads(sc, env, lat)
		var mr *experiments.MIDARResult
		id = sc.do("midar.verify", func() { mr = env.MIDARRun(0, midar.Config{}) })
		sc.count(id, "sets", float64(len(mr.Sample)))
		scoreEnv(sc, env, ep.Truth)
		digest := digestEnv(sc, env)
		var text string
		id = sc.do("experiments.render", func() { text = env.RenderAll() })
		sc.count(id, "bytes", float64(len(text)))
		sc.end(root)
		if tr == nil {
			out.wall.addTime(world, start, time.Since(start))
			out.mem.add(world, rc.mem.window())
		} else {
			out.traced.addTime(world, start, time.Since(start))
		}

		// Correctness, outside the timed part: the shipped digest and a
		// re-resolution of the same observations through the streaming
		// backend.
		check := tr.root(run, phaseVerify)
		if i < family {
			out.digests = append(out.digests, digest)
		}
		if shipped {
			rc.ops.expect(fmt.Sprintf("study world %d vs shipped digest", world), digest, want[world])
		}
		re, err := streamDigest(check, feedEnv(env))
		rc.ops.add(err)
		if err == nil {
			rc.ops.expect(fmt.Sprintf("study world %d vs streaming re-resolution", world), digest, re)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		twin := opts
		twin.Scan.Sink = nil
		if err := probeLayers(rc, experiments.SeriesOptions{Options: twin}, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scoreEnv scores the per-protocol partitions against ground truth, as a
// scenario scorecard does, in one evaluate.score span.
func scoreEnv(sc scope, env *experiments.Env, truth *topo.Truth) {
	owners := map[ident.Protocol]map[string][]netip.Addr{
		ident.SSH: truth.SSHAddrs, ident.BGP: truth.BGPAddrs, ident.SNMP: truth.SNMPAddrs,
	}
	n := 0
	id := sc.do("evaluate.score", func() {
		for _, p := range ident.Protocols {
			ds := env.Both
			if p == ident.SNMP {
				ds = env.Active
			}
			sets := ds.NonSingletonSets(p)
			evaluate.Pairwise(sets, evaluate.OwnerMap(owners[p]))
			n += len(sets)
		}
	})
	sc.count(id, "sets", float64(n))
}

// protoKey is the lower-case metric key of a protocol.
func protoKey(p ident.Protocol) string {
	switch p {
	case ident.SSH:
		return "ssh"
	case ident.BGP:
		return "bgp"
	default:
		return "snmpv3"
	}
}
