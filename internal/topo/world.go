package topo

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"aliaslimit/internal/bgp"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/ptrdns"
	"aliaslimit/internal/xrand"
)

// Vantage labels. Devices may filter one of them, reproducing the coverage
// differences between the paper's single research vantage point and Censys's
// distributed scanners.
const (
	// VantageActive is the single research vantage point in a German data
	// center (the paper's active measurement).
	VantageActive = "active"
	// VantageCensys is the distributed Censys infrastructure.
	VantageCensys = "censys"
	// VantageMIDAR is the IPID prober; devices do not filter it separately
	// (MIDAR ran from the same infrastructure).
	VantageMIDAR = "active"
)

// AuxVantages is the number of auxiliary geographic vantage points every
// world supports, for the paper's future-work question of how vantage
// location affects coverage (§5). Each device independently filters each
// auxiliary vantage with the same probability as the primary one.
const AuxVantages = 8

// AuxVantage returns the label of auxiliary vantage point i in [0,
// AuxVantages).
func AuxVantage(i int) string { return fmt.Sprintf("vp%d", i) }

// Origin is the simulated world's epoch: the Censys snapshot date the paper
// used (March 28, 2023). The active scan runs three simulated weeks later.
var Origin = time.Date(2023, 3, 28, 0, 0, 0, 0, time.UTC)

// Truth is the generator's ground truth, used by integration tests
// (precision/recall of the inference) and by experiment sanity checks. Maps
// are keyed by device ID and list the addresses on which the service
// actually answers (post-ACL).
type Truth struct {
	// SSHAddrs lists SSH-responsive addresses per device.
	SSHAddrs map[string][]netip.Addr
	// BGPAddrs lists identifiable (OPEN-sending) addresses per device.
	BGPAddrs map[string][]netip.Addr
	// SNMPAddrs lists SNMPv3-responsive addresses per device.
	SNMPAddrs map[string][]netip.Addr
	// Fleets maps a fleet-key label to the device IDs sharing that SSH
	// host key (the false-merge population).
	Fleets map[string][]string
}

// World is a generated synthetic Internet.
//
// Concurrency contract: after Build returns, the world is read-only safe —
// concurrent protocol sweeps (experiments.CollectActive runs SSH, BGP, and
// SNMPv3 at once) may probe the Fabric, dial services, read V4Universe /
// V6Bound / AddrASN / PTR / Truth, and read the Clock from any number of
// goroutines. The mutating methods — ApplyChurn, Clock.Advance/Set, and
// bind — are themselves data-race free but change measurement semantics, so
// the caller must order them strictly between scans, as BuildEnv does for
// the Censys → churn → active chronology.
type World struct {
	// Cfg is the configuration the world was built from.
	Cfg Config
	// Clock drives the fabric; experiments advance it.
	Clock *netsim.SimClock
	// Fabric is the simulated network.
	Fabric *netsim.Fabric
	// ASes is the AS plan.
	ASes []*AS
	// AddrASN maps every allocated address (bound or decoy) to its origin
	// AS — the mapping the AS-level analyses use.
	AddrASN map[netip.Addr]uint32
	// PTR is the reverse-DNS zone: partial, noisy, and full of generic
	// names, as real in-addr.arpa is. The ptrdns baseline reads it.
	PTR ptrdns.Registry
	// Truth is the ground truth.
	Truth *Truth

	v4Universe []netip.Addr
	v6Bound    []netip.Addr

	churnable []churnRecord
	darkWires []darkWire
	decoyAS   *AS

	// truthIndex is the grow-only device index behind sortedTruthDevices:
	// every device ID that ever entered a ground-truth map, in sorted order
	// once truthDirty is cleared. Truth-map entries are never deleted (churn
	// empties lists but keeps keys), so maintaining the index at registration
	// time replaces the per-churn-phase map-union-and-sort rebuild with a
	// lazy re-sort only after new devices appear.
	truthIndex []string
	truthSeen  map[string]struct{}
	truthDirty bool
	// truthScratch is the reusable dedup buffer behind truthAddrs.
	truthScratch []netip.Addr

	// bgpSpeakers remembers every identifiable speaker's OPEN personality so
	// an epoch-boundary reboot can re-key it — same AS, same addresses, same
	// peering behavior, fresh router ID and capability presentation —
	// without replanning the device.
	bgpSpeakers map[string]bgp.SpeakerConfig
}

// churnRecord remembers a single-address server that dynamic addressing may
// reassign between measurement epochs.
type churnRecord struct {
	deviceID string
	addr     netip.Addr
}

// V4Universe returns the IPv4 scan target list (bound addresses plus
// decoys), sorted. The returned slice is shared; do not modify.
func (w *World) V4Universe() []netip.Addr { return w.v4Universe }

// V6Bound returns every bound IPv6 address, sorted. Hitlists sample this.
func (w *World) V6Bound() []netip.Addr { return w.v6Bound }

// Build generates a world from cfg.
func Build(cfg Config) (*World, error) {
	if !(cfg.Scale > 0) || math.IsInf(cfg.Scale, 1) {
		return nil, fmt.Errorf("topo: Scale must be a finite positive number, got %v", cfg.Scale)
	}
	clock := netsim.NewSimClock(Origin)
	w := &World{
		Cfg:     cfg,
		Clock:   clock,
		Fabric:  netsim.New(clock),
		ASes:    buildASes(cfg),
		AddrASN: make(map[netip.Addr]uint32),
		PTR:     make(ptrdns.Registry),
		Truth: &Truth{
			SSHAddrs:  make(map[string][]netip.Addr),
			BGPAddrs:  make(map[string][]netip.Addr),
			SNMPAddrs: make(map[string][]netip.Addr),
			Fleets:    make(map[string][]string),
		},
		bgpSpeakers: make(map[string]bgp.SpeakerConfig),
	}
	g := newGenerator(w, cfg)
	if err := g.run(); err != nil {
		return nil, err
	}
	sort.Slice(w.v4Universe, func(i, j int) bool { return w.v4Universe[i].Less(w.v4Universe[j]) })
	sort.Slice(w.v6Bound, func(i, j int) bool { return w.v6Bound[i].Less(w.v6Bound[j]) })
	return w, nil
}

// bind registers a device on the fabric and records its addresses in the
// universes and the AS map.
func (w *World) bind(d *netsim.Device, deviceAS *AS) error {
	if err := w.Fabric.AddDevice(d); err != nil {
		return err
	}
	for _, a := range d.Addrs() {
		w.AddrASN[a] = d.AddrASN(a)
		if a.Is4() {
			w.v4Universe = append(w.v4Universe, a)
		} else {
			w.v6Bound = append(w.v6Bound, a)
		}
	}
	_ = deviceAS
	return nil
}

// ApplyChurn reassigns a fraction of dynamic single-server addresses to
// fresh devices with new SSH keys, as consumer and cloud address pools do
// over weeks. It returns the number of reassigned addresses. Deterministic
// per (seed, round).
func (w *World) ApplyChurn(frac float64, round int) int {
	n := 0
	g := newGenerator(w, w.Cfg)
	for _, c := range w.churnable {
		// Historical key shape: (deviceID, "churn", round) — no seed prefix.
		// The streaming hasher reproduces it without the per-record
		// fmt.Sprint allocation.
		k := xrand.NewHasher()
		k.Key(c.deviceID)
		k.Key("churn")
		k.KeyInt(int64(round))
		if k.Prob() >= frac {
			continue
		}
		old := w.Fabric.Device(c.deviceID)
		if old == nil || w.Fabric.Lookup(c.addr) != old {
			continue // already churned in an earlier round
		}
		w.Fabric.Unbind(c.addr)
		id := fmt.Sprintf("%s-churn%d", c.deviceID, round)
		if err := g.replacementServer(id, c.addr); err != nil {
			// Allocation cannot fail for a replacement (address reused);
			// if it somehow does, leave the address dark — also realistic.
			continue
		}
		// Ground truth: the old device no longer answers on this address.
		w.Truth.SSHAddrs[c.deviceID] = removeAddr(w.Truth.SSHAddrs[c.deviceID], c.addr)
		n++
	}
	return n
}

// registerTruthDevice enters a device ID into the churn enumeration index.
// Every site that creates a new ground-truth map key must call it; repeated
// registrations are free. Sorting is deferred to the next sortedTruthDevices
// call, so bulk registration during Build costs one sort total.
func (w *World) registerTruthDevice(id string) {
	if w.truthSeen == nil {
		w.truthSeen = make(map[string]struct{})
	}
	if _, ok := w.truthSeen[id]; ok {
		return
	}
	w.truthSeen[id] = struct{}{}
	w.truthIndex = append(w.truthIndex, id)
	w.truthDirty = true
}

// sortedTruthDevices returns the device IDs present in any ground-truth map,
// sorted — the canonical iteration order for churn candidate enumeration.
// The returned slice is the maintained index itself: valid until the next
// registration, not to be retained or mutated by callers. Devices registered
// while a caller is still ranging over a previous return value are appended
// past its length, so they join the next enumeration — exactly the snapshot
// semantics the old per-phase rebuild had.
func (w *World) sortedTruthDevices() []string {
	if w.truthDirty {
		sort.Strings(w.truthIndex)
		w.truthDirty = false
	}
	return w.truthIndex
}

// truthAddrs returns the device's distinct ground-truth addresses in
// first-appearance order across the SSH, BGP, SNMP lists. The result lives
// in a reusable scratch buffer: valid until the next call, never retained.
func (w *World) truthAddrs(id string) []netip.Addr {
	out := w.truthScratch[:0]
	for _, m := range [3]map[string][]netip.Addr{w.Truth.SSHAddrs, w.Truth.BGPAddrs, w.Truth.SNMPAddrs} {
		for _, a := range m[id] {
			// Alias sets are small; a linear dedup scan beats a fresh map.
			if !containsAddr(out, a) {
				out = append(out, a)
			}
		}
	}
	w.truthScratch = out
	return out
}

// removeAddr drops addr from list, preserving order.
func removeAddr(list []netip.Addr, addr netip.Addr) []netip.Addr {
	out := list[:0]
	for _, a := range list {
		if a != addr {
			out = append(out, a)
		}
	}
	return out
}

// ASByNumber returns the AS with the given ASN, or nil.
func (w *World) ASByNumber(asn uint32) *AS {
	for _, a := range w.ASes {
		if a.ASN == asn {
			return a
		}
	}
	return nil
}
