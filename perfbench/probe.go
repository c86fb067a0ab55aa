package main

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/bgp"
	"aliaslimit/internal/evaluate"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/hitlist"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/snmpv3"
	"aliaslimit/internal/sshwire"
	"aliaslimit/internal/topo"
	"aliaslimit/internal/xrand"
	"aliaslimit/internal/zgrab"
	"aliaslimit/internal/zmaplite"
)

// probeWorkers is the scan concurrency the probe uses, the collection
// default.
const probeWorkers = 256

// probeGrabTimeout is the anti-hang backstop of one probe grab, as in
// collection: no simulated peer legitimately makes a scanner wait.
const probeGrabTimeout = 2 * time.Minute

// probeLayers runs once at the end of a traced run. It builds a twin of the
// workload's world from the same options, replays its churn, and calls each
// layer's public entry points one at a time in probe spans: the SYN sweeps,
// grabs and identifier extraction that experiments.advance runs inside one
// call, the SNMPv3 discovery, the streaming resolver, the observation log,
// the daemon's ingest and query path, MIDAR, scoring and (given an
// environment) rendering. A layer the workload's own timed part runs is
// reported from there; the probe figure stands in for the others and
// apportions the opaque collection call.
func probeLayers(rc *runCtx, opts experiments.SeriesOptions, render *experiments.Env) error {
	sc := rc.tr.root("probe", phaseProbe)
	var series *experiments.EnvSeries
	var err error
	id := sc.do("topo.build", func() { series, err = experiments.NewEnvSeries(opts) })
	if err != nil {
		return err
	}
	defer series.Close()
	w := series.World
	sc.count(id, "devices", float64(w.Fabric.NumDevices()))
	sc.count(id, "addrs", float64(len(w.V4Universe())+len(w.V6Bound())))
	for e := 0; e < series.Epochs(); e++ {
		var st experiments.EpochStats
		id := sc.do("topo.churn", func() { st, err = series.SkipEpoch() })
		if err != nil {
			return err
		}
		sc.count(id, "events", float64(st.Renumbered+st.Rebooted+st.WiresDown+st.WiresUp+st.IntraChurned))
	}

	// The active campaign, one layer at a time.
	v := w.Fabric.Vantage(topo.VantageActive)
	targets := append(append([]netip.Addr(nil), w.V4Universe()...),
		hitlist.Sample(w.V6Bound(), w.Cfg.HitlistCoverage, w.Cfg.Seed)...)
	seed := opts.Scan.Seed
	obs := make(map[ident.Protocol][]alias.Observation)
	for _, p := range []struct {
		proto   ident.Protocol
		port    uint16
		seed    uint64
		mod     zgrab.Module
		extract func(any) (ident.Identifier, bool)
	}{
		{ident.SSH, 22, seed, &zgrab.SSHModule{Timeout: probeGrabTimeout},
			func(d any) (ident.Identifier, bool) { return ident.FromSSH(d.(*sshwire.ScanResult)) }},
		{ident.BGP, 179, seed + 1, &zgrab.BGPModule{Timeout: probeGrabTimeout},
			func(d any) (ident.Identifier, bool) { return ident.FromBGP(d.(*bgp.ScanResult)) }},
	} {
		key := protoKey(p.proto)
		var sweep *zmaplite.Result
		id := sc.do("zmaplite.sweep."+key, func() {
			sweep, err = zmaplite.Scan(v, zmaplite.Config{Targets: targets, Port: p.port, Seed: p.seed, Workers: probeWorkers})
		})
		if err != nil {
			return fmt.Errorf("probe %s sweep: %w", key, err)
		}
		sc.count(id, "probes", float64(sweep.Total()))
		sc.count(id, "open", float64(len(sweep.Open)))

		var grabs []zgrab.Grab
		id = sc.do("zgrab.grab."+key, func() {
			grabs = zgrab.Run(v, sweep.Open, p.mod, zgrab.Options{Workers: probeWorkers, DialTimeout: probeGrabTimeout})
		})
		ok := zgrab.Successes(grabs)
		sc.count(id, "grabs", float64(len(grabs)))
		sc.count(id, "failures", float64(len(grabs)-len(ok)))

		id = sc.do("ident.extract."+key, func() {
			for _, g := range ok {
				if id, found := p.extract(g.Data); found {
					obs[p.proto] = append(obs[p.proto], alias.Observation{Addr: g.Target, ID: id})
				}
			}
		})
		sc.count(id, "grabs", float64(len(ok)))
		sc.count(id, "ids", float64(len(obs[p.proto])))
	}
	id = sc.do("snmpv3.discover", func() { obs[ident.SNMP] = discover(v, targets) })
	sc.count(id, "probes", float64(len(targets)))
	sc.count(id, "engine_ids", float64(len(obs[ident.SNMP])))

	feed := func(observe func(alias.Observation)) error {
		for _, p := range ident.Protocols {
			for _, o := range obs[p] {
				observe(o)
			}
		}
		return nil
	}
	digest, err := streamDigest(sc, feed)
	if err != nil {
		return err
	}

	if err := probeLog(rc, sc, w, obs, digest); err != nil {
		return err
	}
	if err := probeDaemon(rc, sc, obs, digest); err != nil {
		return err
	}

	sample := midarSample(obs[ident.SSH], w.Cfg.Scale)
	id = sc.do("midar.verify", func() {
		midar.NewSession(w.Fabric.Vantage(topo.VantageMIDAR), w.Clock, midar.Config{}).VerifySets(sample)
	})
	sc.count(id, "sets", float64(len(sample)))

	truth := map[ident.Protocol]map[string][]netip.Addr{
		ident.SSH: w.Truth.SSHAddrs, ident.BGP: w.Truth.BGPAddrs, ident.SNMP: w.Truth.SNMPAddrs,
	}
	n := 0
	id = sc.do("evaluate.score", func() {
		for _, p := range ident.Protocols {
			sets := alias.NonSingleton(alias.Group(obs[p]))
			evaluate.Pairwise(sets, evaluate.OwnerMap(truth[p]))
			n += len(sets)
		}
	})
	sc.count(id, "sets", float64(n))

	if render != nil {
		var text string
		id = sc.do("experiments.render", func() { text = render.RenderAll() })
		sc.count(id, "bytes", float64(len(text)))
	}
	return nil
}

// discover runs SNMPv3 engine discovery against every target, as the active
// campaign does, and returns the identifiers in target order.
func discover(v snmpv3.Exchanger, targets []netip.Addr) []alias.Observation {
	found := make([]*alias.Observation, len(targets))
	idx := make(chan int)
	var wg sync.WaitGroup
	for range probeWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, ok, err := snmpv3.Discover(v, targets[i], int64(i), int64(i)+1)
				if !ok || err != nil {
					continue
				}
				if id, ok := ident.FromSNMPEngineID(res.EngineID); ok {
					found[i] = &alias.Observation{Addr: targets[i], ID: id}
				}
			}
		}()
	}
	for i := range targets {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var out []alias.Observation
	for _, o := range found {
		if o != nil {
			out = append(out, *o)
		}
	}
	return out
}

// midarSample picks the SSH sets MIDAR verifies, sized as the study's
// paper-scaled sample: v4 sets of at most ten addresses.
func midarSample(ssh []alias.Observation, scale float64) []alias.Set {
	limit := max(5, int(61*scale))
	var out []alias.Set
	for _, s := range alias.NonSingleton(alias.FilterFamily(alias.Group(ssh), true)) {
		if s.Size() <= 10 && len(out) < limit {
			out = append(out, s)
		}
	}
	return out
}

// probeLog writes the twin's observations to a durable observation log,
// commits the epoch, reads it back frame by frame, and digests the committed
// epoch the way a resume does.
func probeLog(rc *runCtx, sc scope, w *topo.World, obs map[ident.Protocol][]alias.Observation, digest string) error {
	dir := filepath.Join(rc.tmp, "probe-log")
	defer os.RemoveAll(dir)
	lg, err := obslog.Create(dir, obslog.RunMeta{Scenario: "probe", Seed: rc.seed, Scale: w.Cfg.Scale, Epochs: 1}, obslog.Options{})
	if err != nil {
		return err
	}
	for _, p := range ident.Protocols {
		for _, o := range obs[p] {
			lg.Observe(obslog.SourceActive, p, o)
		}
	}
	if err := lg.CompleteEpoch(0, digest, w.ChurnDrawState()); err != nil {
		lg.Close()
		return err
	}
	if err := lg.Close(); err != nil {
		return err
	}
	replayed, err := replayEpoch(sc, dir, 0)
	if err != nil {
		return err
	}
	if n := len(obs[ident.SSH]) + len(obs[ident.BGP]) + len(obs[ident.SNMP]); len(replayed) != n {
		rc.ops.fail("probe log replay: %d observations, wrote %d", len(replayed), n)
	} else {
		rc.ops.ok()
	}
	countLogBytes(sc, dir)

	snap, err := obslog.Replay(dir, 0)
	if err != nil {
		return err
	}
	env, err := experiments.ReplayEnv(snap, resolver.NewBatch())
	if err != nil {
		return err
	}
	defer env.Close()
	got := epochDigest(sc, env, nil)
	rc.ops.expect("probe committed-epoch digest", got, digest)
	return nil
}

// epochDigest computes a sealed epoch's sets digest in a
// scenario.epoch_digest span, reading each partition in a child span first.
func epochDigest(sc scope, env *experiments.Env, lat *book) string {
	id := sc.begin("scenario.epoch_digest")
	partitionReads(sc.child(id), env, lat)
	d := digestEnv(sc.child(id), env)
	sc.end(id)
	sc.count(id, "epochs", 1)
	return d
}

// replayEpoch reads one committed epoch of every shard back through the
// streaming epoch reader, in an obslog.replay span counting frames and
// bytes.
func replayEpoch(sc scope, dir string, epoch int) ([]alias.Observation, error) {
	var out []alias.Observation
	var bytesRead int64
	var err error
	id := sc.do("obslog.replay", func() {
		for _, p := range ident.Protocols {
			var r *obslog.EpochReader
			if r, err = obslog.OpenEpoch(dir, p, epoch, obslog.ReadOptions{}); err != nil {
				return
			}
			start := r.Offset()
			for {
				_, o, nerr := r.Next()
				if nerr == io.EOF {
					break
				}
				if nerr != nil {
					err = nerr
					r.Close()
					return
				}
				out = append(out, o)
			}
			bytesRead += r.Offset() - start
			r.Close()
		}
	})
	sc.count(id, "frames", float64(len(out)))
	sc.count(id, "bytes", float64(bytesRead))
	return out, err
}

// countLogBytes records a log directory's size on disk in an obslog.bytes
// span.
func countLogBytes(sc scope, dir string) {
	var total int64
	id := sc.do("obslog.bytes", func() {
		filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				total += info.Size()
			}
			return nil
		})
	})
	sc.count(id, "bytes", float64(total))
}

// probeDaemon serves the twin's observations through an in-process aliasd
// session: NDJSON decoding on its own, then one session cycle as the daemon
// clients run it, in a seed-shuffled order.
func probeDaemon(rc *runCtx, sc scope, obs map[ident.Protocol][]alias.Observation, digest string) error {
	var lines [][]byte
	for _, p := range ident.Protocols {
		for _, o := range obs[p] {
			line, err := ndjson(o)
			if err != nil {
				return err
			}
			lines = append(lines, line)
		}
	}
	batches := batchLines(lines, xrand.NewSplitMix64(rc.seed).Fork("probe").Perm(len(lines)))
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = bytes.Join(b, nil)
	}
	decoded := 0
	id := sc.do("obsfile.decode", func() {
		for _, body := range bodies {
			got, err := obsfile.Read(bytes.NewReader(body))
			rc.ops.add(err)
			decoded += len(got)
		}
	})
	sc.count(id, "lines", float64(decoded))

	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	c := d.client()
	defer c.close()
	c.cycle(rc, sc, batches, queryViews, digest, nil)
	return nil
}
