package scenario

import (
	"sort"

	"aliaslimit/internal/netsim"
	"aliaslimit/internal/topo"
)

// Preset is one named world: a composition of topo generation knobs and
// netsim fault-injection hooks, plus the scales it runs at.
type Preset struct {
	// Name is the stable identifier used by the CLI, the CI matrix, and
	// SCENARIOS.json.
	Name string
	// Summary is the one-line catalog description.
	Summary string
	// Scale is the default world scale for a full run; QuickScale is the
	// CI-sized -quick variant.
	Scale, QuickScale float64
	// Churn is the snapshot-gap churn fraction; 0 keeps the experiments
	// default (2%), negative disables churn.
	Churn float64
	// Faults is the fabric fault policy (Seed is filled in at run time
	// from the world seed).
	Faults netsim.Faults
	// Tune applies the preset's topo.Config overrides on top of
	// topo.Default(); nil leaves the calibrated defaults.
	Tune func(*topo.Config)
	// EpochChurn is the per-epoch-boundary churn a longitudinal run applies
	// between snapshot rounds; the zero value falls back to
	// DefaultEpochChurn.
	EpochChurn topo.EpochChurn
	// Longitudinal marks the presets the CI longitudinal matrix runs with
	// -epochs (every preset *can* run longitudinally; these are the pinned
	// interesting ones).
	Longitudinal bool
	// StreamOnly marks worlds too large for in-RAM collection: the run
	// refuses to start without Options.StreamCollect, because materialising
	// the observations would defeat the preset's point (and its memory
	// budget). `-run all` skips these unless streaming is on.
	StreamOnly bool
}

// DefaultEpochChurn is the calm-Internet epoch boundary: a small dynamic
// pool turns over, the odd device reboots into fresh keys, and a sliver of
// interfaces blink in maintenance windows.
var DefaultEpochChurn = topo.EpochChurn{
	Renumber: 0.02,
	Reboot:   0.02,
	WireDown: 0.02,
	WireUp:   0.50,
}

// epochChurn returns the preset's boundary churn spec, defaulted.
func (p Preset) epochChurn() topo.EpochChurn {
	if p.EpochChurn == (topo.EpochChurn{}) {
		return DefaultEpochChurn
	}
	return p.EpochChurn
}

// presets is the catalog, in canonical (report) order. Every preset runs the
// identical collect→resolve→validate pipeline; only the world differs.
var presets = []Preset{
	{
		Name:         "baseline",
		Summary:      "the paper's calibrated Internet: no injected faults, 2% snapshot churn",
		Scale:        0.2,
		QuickScale:   0.08,
		Longitudinal: true,
	},
	{
		Name:       "ipv6-heavy",
		Summary:    "dual-stack-dominant Internet: most servers and routers carry IPv6, near-complete hitlist",
		Scale:      0.2,
		QuickScale: 0.08,
		Tune: func(c *topo.Config) {
			c.PServerV6 = 0.45
			c.PServerV6Only = 0.12
			c.PMultiSSHOneV6 = 0.30
			c.PMultiSSHManyV6 = 0.22
			c.PSNMPRouterV6 = 0.35
			c.PBGPMultiV6 = 0.85
			c.SNMPV6OnlySingles *= 4
			c.BGPV6OnlySingles *= 3
			c.HitlistCoverage = 0.95
		},
	},
	{
		Name:       "lossy",
		Summary:    "8% per-wire packet loss on every probe, dial, and exchange — recall under attrition",
		Scale:      0.2,
		QuickScale: 0.08,
		Faults:     netsim.Faults{LossRate: 0.08},
	},
	{
		Name:       "ratelimited",
		Summary:    "upstream rate limiters drop 35% of SYN/ICMP/UDP probe floods; completed handshakes pass",
		Scale:      0.2,
		QuickScale: 0.08,
		Faults:     netsim.Faults{ThrottleRate: 0.35},
	},
	{
		Name:       "ssh-keyfarm",
		Summary:    "fleet/factory SSH keys shared across whole provider farms — the false-merge stress test",
		Scale:      0.2,
		QuickScale: 0.08,
		Tune: func(c *topo.Config) {
			c.PSharedSSHKey = 0.30
			c.PCloneSSHKeyOverlap = 0.50
			c.PCloneEngineID = 0.15
		},
	},
	{
		Name:       "snmp-dark",
		Summary:    "security hardening disabled SNMPv3 on 60% of would-be agents — the baseline starves",
		Scale:      0.2,
		QuickScale: 0.08,
		Tune: func(c *topo.Config) {
			c.PSNMPDisabled = 0.60
		},
	},
	{
		Name:       "ipid-noisy",
		Summary:    "every device switched to per-interface IPID counters — MIDAR's monotonic-bounds test breaks",
		Scale:      0.2,
		QuickScale: 0.08,
		Faults:     netsim.Faults{IPIDPolicy: netsim.IPIDPolicyOf(netsim.IPIDPerInterface)},
	},
	{
		Name:       "churn-storm",
		Summary:    "25% of dynamic addresses reassigned between snapshots — stale-identifier false merges",
		Scale:      0.2,
		QuickScale: 0.08,
		Churn:      0.25,
		EpochChurn: topo.EpochChurn{
			Renumber: 0.25,
			Reboot:   0.10,
			WireDown: 0.08,
			WireUp:   0.50,
		},
		Longitudinal: true,
	},
	{
		Name:       "megascale",
		Summary:    "the full calibrated scale (≈1:1000 of the paper's Internet) — the throughput workout",
		Scale:      1.0,
		QuickScale: 0.3,
	},
	{
		Name:       "megascale-x10",
		Summary:    "ten times the calibrated scale — the zero-alloc hot-path workout (arena grouping, dense topo, stack-only draws)",
		Scale:      10.0,
		QuickScale: 0.5,
	},
	{
		Name:       "megascale-x100",
		Summary:    "a hundred times the calibrated scale — runnable only out-of-core (-stream-collect): scan→disk→replayed grouping, never a full in-RAM dataset",
		Scale:      100.0,
		QuickScale: 1.0,
		StreamOnly: true,
	},
}

// Presets returns the catalog in canonical order. The slice is shared; do
// not modify.
func Presets() []Preset { return presets }

// Names returns the preset names in canonical order.
func Names() []string {
	out := make([]string, len(presets))
	for i, p := range presets {
		out[i] = p.Name
	}
	return out
}

// LongitudinalNames returns the presets the CI longitudinal matrix pins, in
// canonical order.
func LongitudinalNames() []string {
	var out []string
	for _, p := range presets {
		if p.Longitudinal {
			out = append(out, p.Name)
		}
	}
	return out
}

// Lookup finds a preset by name.
func Lookup(name string) (Preset, bool) {
	for _, p := range presets {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}

// rank returns a preset's canonical position (after the catalog for unknown
// names, so merged reports keep foreign entries stable at the end).
func rank(name string) int {
	for i, p := range presets {
		if p.Name == name {
			return i
		}
	}
	return len(presets)
}

// SortResults orders results canonically: catalog order first, then by name
// for entries the catalog does not know, then by backend label, so reports
// merged from older runs that carry several labels stay stable.
func SortResults(rs []*Result) {
	sort.SliceStable(rs, func(i, j int) bool {
		ri, rj := rank(rs[i].Scenario), rank(rs[j].Scenario)
		if ri != rj {
			return ri < rj
		}
		if rs[i].Scenario != rs[j].Scenario {
			return rs[i].Scenario < rs[j].Scenario
		}
		return rs[i].Backend < rs[j].Backend
	})
}
