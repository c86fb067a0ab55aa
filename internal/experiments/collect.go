package experiments

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/bgp"
	"aliaslimit/internal/hitlist"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/snmpv3"
	"aliaslimit/internal/sshwire"
	"aliaslimit/internal/topo"
	"aliaslimit/internal/zgrab"
	"aliaslimit/internal/zmaplite"
)

// ObservationSink receives identifier observations the moment the scan
// pipeline extracts them — while the SYN sweep and later grabs are still in
// flight — so the observation log can record them as they arrive. Worker
// pools call Observe concurrently with no ordering guarantee, so
// implementations must be concurrency-safe and order-insensitive.
type ObservationSink interface {
	Observe(p ident.Protocol, o alias.Observation)
}

// TeeSink fans one observation stream out to several sinks — how a campaign
// feeds both its own per-dataset sink and the shared union sink. Nil members
// are skipped.
func TeeSink(sinks ...ObservationSink) ObservationSink {
	return teeSink(sinks)
}

// teeSink is TeeSink's implementation.
type teeSink []ObservationSink

// Observe forwards to every member sink.
func (t teeSink) Observe(p ident.Protocol, o alias.Observation) {
	for _, s := range t {
		if s != nil {
			s.Observe(p, o)
		}
	}
}

// ScanOptions tune the collection phase.
type ScanOptions struct {
	// Workers bounds service-scan concurrency; 0 picks 256.
	Workers int
	// Seed drives scan-order permutations.
	Seed uint64
	// Parallelism bounds how many per-protocol sweeps (SSH, BGP, SNMPv3) run
	// concurrently within one collection. 0 runs all protocols at once; 1
	// recovers the sequential baseline. Datasets are byte-identical at any
	// setting: every sweep collects into its own shard and the shards merge
	// in fixed protocol order.
	Parallelism int
	// Sink, when non-nil, is fed every extracted observation live from the
	// scan worker goroutines. The Dataset contents are unaffected: the sink
	// is a tap, not a detour. EnvSeries installs the observation log here.
	Sink ObservationSink
	// DiscardObs turns the tap into the only output: scan workers deliver
	// every observation to Sink and accumulate nothing, so the returned
	// Dataset carries empty Obs slices and collection memory stays
	// O(workers) instead of O(observations). This is the scan front of the
	// out-of-core path — the sink writes to the durable log and sealing
	// later replays it. Requires a non-nil Sink.
	DiscardObs bool
}

// simGrabTimeout bounds one service grab against the simulated fabric. The
// paper's real-Internet methodology uses short waits (2 s for the passive BGP
// collection), but in the simulation no peer ever legitimately makes the
// scanner wait: every handler either writes or closes. The timeout is purely
// an anti-hang backstop, so it sits far above any plausible goroutine
// starvation — with three protocol sweeps and hundreds of workers sharing few
// cores (worse under -race), a short wall-clock deadline can drop a
// legitimately answered grab and silently break Dataset determinism.
const simGrabTimeout = 2 * time.Minute

// withDefaults fills unset fields.
func (o ScanOptions) withDefaults() ScanOptions {
	if o.Workers <= 0 {
		o.Workers = 256
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	// Parallelism 0 stays 0 (unbounded): every protocol sweep overlaps.
	return o
}

// CollectActive runs the paper's active measurement from the single research
// vantage point: ZMap-style SYN sweeps on 22 and 179 over the IPv4 universe
// and the IPv6 hitlist, ZGrab-style service scans of the responsive
// addresses, and an SNMPv3 engine-discovery sweep.
//
// The three protocol sweeps run concurrently (bounded by opts.Parallelism),
// and within the SSH and BGP sweeps the SYN phase streams responsive
// addresses straight into the service-scan worker pools — banner grabs start
// while the sweep is still in flight. The world is only read: see the
// concurrency contract on topo.World.
func CollectActive(w *topo.World, opts ScanOptions) (*Dataset, error) {
	opts = opts.withDefaults()
	v := w.Fabric.Vantage(topo.VantageActive)

	v6targets := hitlist.Sample(w.V6Bound(), w.Cfg.HitlistCoverage, w.Cfg.Seed)
	targets := append(append([]netip.Addr(nil), w.V4Universe()...), v6targets...)

	var sshObs, bgpObs, snmpObs []alias.Observation
	g := newGroup(opts.Parallelism)
	g.Go(func() (err error) {
		sshObs, err = scanSSH(v, targets, opts)
		return err
	})
	g.Go(func() (err error) {
		bgpObs, err = scanBGP(v, targets, opts)
		return err
	})
	g.Go(func() error {
		snmpObs = scanSNMP(v, targets, opts)
		return nil
	})
	if err := g.Wait(); err != nil {
		return nil, err
	}

	// Deterministic merge order: fixed protocol sequence, each shard already
	// in sorted target order.
	ds := NewDataset("Active")
	ds.AddAll(ident.SSH, sshObs)
	ds.AddAll(ident.BGP, bgpObs)
	ds.AddAll(ident.SNMP, snmpObs)
	return ds, nil
}

// CollectCensys models the Censys snapshot: a distributed (unfiltered-label)
// IPv4-only scan. Censys's IPv6 coverage at the paper's snapshot date was
// negligible and is excluded, exactly as §2.5 does. Censys additionally
// reports SSH on tens of thousands of non-standard ports; the paper filters
// those out, which is modelled here as a synthetic excluded count.
func CollectCensys(w *topo.World, opts ScanOptions) (*Dataset, error) {
	opts = opts.withDefaults()
	v := w.Fabric.Vantage(topo.VantageCensys)

	var sshObs, bgpObs []alias.Observation
	g := newGroup(opts.Parallelism)
	g.Go(func() (err error) {
		sshObs, err = scanSSH(v, w.V4Universe(), opts)
		return err
	})
	g.Go(func() (err error) {
		bgpObs, err = scanBGP(v, w.V4Universe(), opts)
		return err
	})
	if err := g.Wait(); err != nil {
		return nil, err
	}

	ds := NewDataset("Censys")
	ds.AddAll(ident.SSH, sshObs)
	ds.AddAll(ident.BGP, bgpObs)
	// The paper: Censys finds an additional 5.6M SSH IPs on 60,806
	// non-standard ports (~23% of its port-22 population) — found, counted,
	// and excluded.
	ds.NonStandardPortSSH = len(ds.Obs[ident.SSH]) * 23 / 100
	return ds, nil
}

// scanSSH runs the two-phase SSH scan and extracts identifiers. The SYN sweep
// streams into the banner grabs; the returned observations are in sorted
// target order.
func scanSSH(v *netsim.Vantage, targets []netip.Addr, opts ScanOptions) ([]alias.Observation, error) {
	open, done, err := zmaplite.ScanStream(v, zmaplite.Config{
		Targets: targets, Port: 22, Seed: opts.Seed, Workers: opts.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: ssh sweep: %w", err)
	}
	mod := &zgrab.SSHModule{Timeout: simGrabTimeout}
	zopts := zgrab.Options{Workers: opts.Workers, DialTimeout: simGrabTimeout}
	emit := emitIdent(opts.Sink, ident.SSH, func(data any) (ident.Identifier, bool) {
		return ident.FromSSH(data.(*sshwire.ScanResult))
	})
	if opts.DiscardObs {
		zgrab.RunStreamDiscard(v, open, mod, zopts, emit)
		<-done
		return nil, nil
	}
	grabs := zgrab.RunStreamEmit(v, open, mod, zopts, emit)
	<-done
	var obs []alias.Observation
	for _, g := range zgrab.Successes(grabs) {
		res := g.Data.(*sshwire.ScanResult)
		if id, ok := ident.FromSSH(res); ok {
			obs = append(obs, alias.Observation{Addr: g.Target, ID: id})
		}
	}
	return obs, nil
}

// emitIdent adapts an ObservationSink into a zgrab completion tap: each
// successful grab has its identifier extracted and streamed to the sink as
// it completes. A nil sink disables the tap entirely.
func emitIdent(sink ObservationSink, p ident.Protocol, extract func(any) (ident.Identifier, bool)) func(zgrab.Grab) {
	if sink == nil {
		return nil
	}
	return func(g zgrab.Grab) {
		if !g.OK() {
			return
		}
		if id, ok := extract(g.Data); ok {
			sink.Observe(p, alias.Observation{Addr: g.Target, ID: id})
		}
	}
}

// scanBGP runs the two-phase passive BGP scan and extracts identifiers,
// streaming the sweep into the OPEN collection like scanSSH.
func scanBGP(v *netsim.Vantage, targets []netip.Addr, opts ScanOptions) ([]alias.Observation, error) {
	open, done, err := zmaplite.ScanStream(v, zmaplite.Config{
		Targets: targets, Port: 179, Seed: opts.Seed + 1, Workers: opts.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: bgp sweep: %w", err)
	}
	mod := &zgrab.BGPModule{Timeout: simGrabTimeout}
	zopts := zgrab.Options{Workers: opts.Workers, DialTimeout: simGrabTimeout}
	emit := emitIdent(opts.Sink, ident.BGP, func(data any) (ident.Identifier, bool) {
		return ident.FromBGP(data.(*bgp.ScanResult))
	})
	if opts.DiscardObs {
		zgrab.RunStreamDiscard(v, open, mod, zopts, emit)
		<-done
		return nil, nil
	}
	grabs := zgrab.RunStreamEmit(v, open, mod, zopts, emit)
	<-done
	var obs []alias.Observation
	for _, g := range zgrab.Successes(grabs) {
		res := g.Data.(*bgp.ScanResult)
		if id, ok := ident.FromBGP(res); ok {
			obs = append(obs, alias.Observation{Addr: g.Target, ID: id})
		}
	}
	return obs, nil
}

// scanSNMP sweeps targets with engine-discovery probes (UDP; no SYN phase).
// Workers fill a per-target result table indexed by target position, so the
// returned observations are in target order no matter how the probes
// interleave — the arrival-order nondeterminism of the previous
// channel-funnel implementation is gone.
func scanSNMP(v *netsim.Vantage, targets []netip.Addr, opts ScanOptions) []alias.Observation {
	type slot struct {
		id ident.Identifier
		ok bool
	}
	// In discard mode the sink is the only output, so the O(targets) result
	// table is never allocated.
	var slots []slot
	if !opts.DiscardObs {
		slots = make([]slot, len(targets))
	}
	idx := make(chan int, opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, ok, err := snmpv3.Discover(v, targets[i], int64(i), int64(i)+1)
				if !ok || err != nil {
					continue
				}
				if id, idOK := ident.FromSNMPEngineID(res.EngineID); idOK {
					if slots != nil {
						slots[i] = slot{id: id, ok: true}
					}
					if opts.Sink != nil {
						opts.Sink.Observe(ident.SNMP,
							alias.Observation{Addr: targets[i], ID: id})
					}
				}
			}
		}()
	}
	for i := range targets {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var obs []alias.Observation
	for i, s := range slots {
		if s.ok {
			obs = append(obs, alias.Observation{Addr: targets[i], ID: s.id})
		}
	}
	return obs
}
