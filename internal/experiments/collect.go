package experiments

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"strings"
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
// flight. Every sweep hands each observation to its campaign's sink exactly
// once: the in-RAM collector, the observation log, or both, plus any
// caller's tap. Worker pools call Observe concurrently with no ordering
// guarantee, so implementations must be concurrency-safe and
// order-insensitive.
type ObservationSink interface {
	Observe(p ident.Protocol, o alias.Observation)
}

// TeeSink fans one observation stream out to several sinks — how a campaign
// feeds the caller's tap, the observation log and the in-RAM collector from
// one sweep. Nil members are skipped.
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
	// Workers is the goroutine count of each sweep's pools (the SYN sweep,
	// the grabs and the SNMPv3 probes); 0 picks 4 × GOMAXPROCS, and a
	// value above MaxWorkers is refused.
	Workers int
	// Seed drives scan-order permutations.
	Seed uint64
	// Parallelism bounds how many per-protocol sweeps (SSH, BGP, SNMPv3) run
	// concurrently within one collection. 0 runs all protocols at once; 1
	// recovers the sequential baseline. Datasets are byte-identical at any
	// setting: the collector sorts each protocol's observations by address
	// once the sweeps end.
	Parallelism int
	// Sink, when non-nil, is fed every extracted observation live from the
	// scan worker goroutines, alongside the campaign's own sink (the
	// collector of an in-RAM dataset, or the observation log). The Dataset
	// contents are unaffected: the sink is a tap, not a detour.
	Sink ObservationSink
}

// simGrabTimeout bounds one service grab against the simulated fabric. The
// paper's real-Internet methodology uses short waits (2 s for the passive BGP
// collection), but in the simulation no peer ever legitimately makes the
// scanner wait: every handler either writes or closes. The timeout is purely
// an anti-hang backstop, so it sits far above any plausible goroutine
// starvation: an explicit Workers may still run thousands of goroutines per
// pool across three concurrent sweeps on few cores (slower still under
// -race), and a short wall-clock deadline can then drop a legitimately
// answered grab and silently break Dataset determinism.
const simGrabTimeout = 2 * time.Minute

// MaxWorkers is the widest Workers a sweep accepts. Each pool starts that
// many goroutines and sizes channel buffers and per-worker tallies by it,
// so a far larger value only spends memory, and an absurd one overflows a
// channel size.
const MaxWorkers = 4096

// withDefaults fills unset fields and refuses a Workers above MaxWorkers.
//
// The fabric answers without wall-clock latency, so a wide pool hides no
// round trips: it only adds goroutine stacks and scheduling. The default of
// 4 × GOMAXPROCS keeps every CPU busy while a few workers wait on a
// simulated peer's goroutine; at the old default of 256 per pool, goroutine
// stacks alone held several MiB at the collection peak (ARCHITECTURE.md,
// "Collection: one scan front"). Datasets do not depend on the width.
func (o ScanOptions) withDefaults() (ScanOptions, error) {
	if o.Workers > MaxWorkers {
		return o, fmt.Errorf("experiments: %d scan workers is above the limit of %d", o.Workers, MaxWorkers)
	}
	if o.Workers <= 0 {
		o.Workers = 4 * runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	// Parallelism 0 stays 0 (unbounded): every protocol sweep overlaps.
	return o, nil
}

// collector is the in-RAM campaign sink: it gathers each protocol's
// observations as the sweeps emit them, and builds the finished dataset once
// they end.
type collector struct {
	mu  [numProto]sync.Mutex
	obs [numProto][]alias.Observation
}

// Observe implements ObservationSink.
func (c *collector) Observe(p ident.Protocol, o alias.Observation) {
	c.mu[p].Lock()
	c.obs[p] = append(c.obs[p], o)
	c.mu[p].Unlock()
}

// dataset sorts each protocol's observations by address (digest breaking
// ties), so the dataset is the same whatever order the workers emitted in,
// and builds it.
func (c *collector) dataset(name string) *Dataset {
	for p := range c.obs {
		slices.SortFunc(c.obs[p], func(a, b alias.Observation) int {
			if d := a.Addr.Compare(b.Addr); d != 0 {
				return d
			}
			return strings.Compare(a.ID.Digest, b.ID.Digest)
		})
	}
	return newDataset(name, c.obs)
}

// collect runs one campaign's sweeps into a fresh collector and returns the
// finished dataset.
func collect(name string, opts ScanOptions, sweep func(ScanOptions) error) (*Dataset, error) {
	c := &collector{}
	opts.Sink = TeeSink(opts.Sink, c)
	if err := sweep(opts); err != nil {
		return nil, err
	}
	return c.dataset(name), nil
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
	return collect("Active", opts, func(o ScanOptions) error { return sweepActive(w, o) })
}

// CollectCensys models the Censys snapshot: a distributed (unfiltered-label)
// IPv4-only scan. Censys's IPv6 coverage at the paper's snapshot date was
// negligible and is excluded, exactly as §2.5 does. Censys additionally
// reports SSH on tens of thousands of non-standard ports; the paper filters
// those out, which is modelled here as a synthetic excluded count.
func CollectCensys(w *topo.World, opts ScanOptions) (*Dataset, error) {
	ds, err := collect("Censys", opts, func(o ScanOptions) error { return sweepCensys(w, o) })
	if err != nil {
		return nil, err
	}
	ds.NonStandardPortSSH = nonStandardPortSSH(ds)
	return ds, nil
}

// nonStandardPortSSH models the paper's Censys exclusion: an additional 5.6M
// SSH IPs on 60,806 non-standard ports, ~23% of its port-22 population —
// found, counted, and excluded.
func nonStandardPortSSH(censys *Dataset) int {
	return len(censys.addrs[ident.SSH]) * 23 / 100
}

// sweepActive runs the active campaign's three protocol sweeps, handing
// every observation to opts.Sink once.
func sweepActive(w *topo.World, opts ScanOptions) error {
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	v := w.Fabric.Vantage(topo.VantageActive)

	v6targets := hitlist.Sample(w.V6Bound(), w.Cfg.HitlistCoverage, w.Cfg.Seed)
	targets := append(append([]netip.Addr(nil), w.V4Universe()...), v6targets...)

	g := newGroup(opts.Parallelism)
	g.Go(func() error { return scanSSH(v, targets, opts) })
	g.Go(func() error { return scanBGP(v, targets, opts) })
	g.Go(func() error {
		scanSNMP(v, targets, opts)
		return nil
	})
	return g.Wait()
}

// sweepCensys runs the Censys campaign's SSH and BGP sweeps over the IPv4
// universe, handing every observation to opts.Sink once.
func sweepCensys(w *topo.World, opts ScanOptions) error {
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	v := w.Fabric.Vantage(topo.VantageCensys)

	g := newGroup(opts.Parallelism)
	g.Go(func() error { return scanSSH(v, w.V4Universe(), opts) })
	g.Go(func() error { return scanBGP(v, w.V4Universe(), opts) })
	return g.Wait()
}

// scanSSH runs the two-phase SSH scan on TCP/22.
func scanSSH(v *netsim.Vantage, targets []netip.Addr, opts ScanOptions) error {
	return scanTCP(v, targets, 22, 0, &zgrab.SSHModule{Timeout: simGrabTimeout},
		func(data any) (ident.Identifier, bool) { return ident.FromSSH(data.(*sshwire.ScanResult)) }, opts)
}

// scanBGP runs the two-phase passive BGP scan on TCP/179.
func scanBGP(v *netsim.Vantage, targets []netip.Addr, opts ScanOptions) error {
	return scanTCP(v, targets, 179, 1, &zgrab.BGPModule{Timeout: simGrabTimeout},
		func(data any) (ident.Identifier, bool) { return ident.FromBGP(data.(*bgp.ScanResult)) }, opts)
}

// scanTCP runs one two-phase TCP scan: the SYN sweep of port (its scan order
// seeded by opts.Seed+seedOff) streams responsive addresses into the
// module's grabs, and the identifier extract finds in each successful grab
// goes to opts.Sink as the grab completes.
func scanTCP(v *netsim.Vantage, targets []netip.Addr, port uint16, seedOff uint64, mod zgrab.Module,
	extract func(any) (ident.Identifier, bool), opts ScanOptions) error {
	open, done, err := zmaplite.ScanStream(v, zmaplite.Config{
		Targets: targets, Port: port, Seed: opts.Seed + seedOff, Workers: opts.Workers,
	})
	if err != nil {
		return fmt.Errorf("experiments: %s sweep: %w", mod.Name(), err)
	}
	zopts := zgrab.Options{Port: port, Workers: opts.Workers, DialTimeout: simGrabTimeout}
	zgrab.RunStream(v, open, mod, zopts, func(g zgrab.Grab) {
		if !g.OK() {
			return
		}
		if id, ok := extract(g.Data); ok {
			opts.Sink.Observe(id.Proto, alias.Observation{Addr: g.Target, ID: id})
		}
	})
	<-done
	return nil
}

// scanSNMP sweeps targets with engine-discovery probes (UDP; no SYN phase),
// handing each identifier to opts.Sink as its probe completes. A probe's
// request IDs derive from its target's position, so the probes are the same
// however the workers interleave.
func scanSNMP(v *netsim.Vantage, targets []netip.Addr, opts ScanOptions) {
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
				if id, ok := ident.FromSNMPEngineID(res.EngineID); ok {
					opts.Sink.Observe(ident.SNMP, alias.Observation{Addr: targets[i], ID: id})
				}
			}
		}()
	}
	for i := range targets {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
