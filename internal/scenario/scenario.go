// Package scenario is the adversarial-world engine: a catalog of named
// presets (baseline, lossy, ratelimited, ssh-keyfarm, snmp-dark, ipid-noisy,
// churn-storm, ipv6-heavy, megascale, …) that compose topo generation knobs
// with netsim fault-injection hooks, run the full collect→resolve→validate
// pipeline against each world, and score the inference against the
// simulator's ground-truth alias sets.
//
// The paper evaluates one Internet; this package opens the workload axis.
// Every preset produces per-protocol precision / recall / coverage plus the
// MIDAR-validation tally in one machine-readable Report (SCENARIOS.json),
// deterministic byte-for-byte for a fixed seed — quenched-randomness fault
// draws, not execution-order dice — so CI can diff scenario outcomes across
// commits the way it already diffs benchmarks.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/evaluate"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/topo"
)

// Options parameterise one scenario run.
type Options struct {
	// Seed drives the world and every fault draw; 0 keeps the topo default.
	Seed uint64
	// Scale overrides the preset's world scale when positive; 0 keeps the
	// preset's own. A negative, NaN or infinite scale is refused.
	Scale float64
	// Quick selects the CI-sized scale (ignored when Scale is set).
	Quick bool
	// LogDir, when set, makes the run durable: every observation is teed
	// into the append-only binary log under this directory during
	// collection, and every epoch boundary commits a checkpoint (manifest
	// plus, for longitudinal runs, the epoch scorecard), so a killed
	// longitudinal run can be continued with ResumeLongitudinal or
	// `cmd/scenarios -resume`. One run per directory; the directory must
	// not already hold a log.
	LogDir string
	// StreamCollect selects the out-of-core collection path: observations
	// spill to a per-protocol obslog during the scans (under LogDir when
	// set, else a temporary directory) and dataset sealing replays them in
	// bounded batches, so peak memory stays O(alias-set output + arena)
	// instead of O(observations). Scorecards — including SetsDigest — are
	// byte-identical to the in-RAM path. Required by
	// StreamOnly presets (megascale-x100).
	StreamCollect bool
}

// ProtocolScore is one protocol's ground-truth accuracy in one scenario.
type ProtocolScore struct {
	// Protocol names the technique (ssh, bgp, snmpv3).
	Protocol string `json:"protocol"`
	// Precision / Recall / F1 are pairwise clustering scores against the
	// generator's ground truth (evaluate.Pairwise).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	// Coverage is identifiable observed addresses over ground-truth
	// service addresses — how much of the answering population the
	// pipeline reached under this world's conditions. Zero when the world
	// runs no such service at all.
	Coverage float64 `json:"coverage"`
	// ObservedAddrs / TruthAddrs are Coverage's numerator and denominator.
	ObservedAddrs int `json:"observed_addrs"`
	TruthAddrs    int `json:"truth_addrs"`
	// AliasSets counts the non-singleton sets the protocol yielded.
	AliasSets int `json:"alias_sets"`
	// TruePairs / FalsePairs / MissedPairs are the raw pairwise counts.
	TruePairs   int `json:"true_pairs"`
	FalsePairs  int `json:"false_pairs"`
	MissedPairs int `json:"missed_pairs"`
}

// MIDARScore is the IPID baseline's validation tally in one scenario — the
// number that collapses under ipid-noisy and ratelimited worlds.
type MIDARScore struct {
	// Sampled is the number of SSH sets fed to the IPID pipeline.
	Sampled int `json:"sampled"`
	// Unverifiable / Confirmed / Split partition the sample.
	Unverifiable int `json:"unverifiable"`
	Confirmed    int `json:"confirmed"`
	Split        int `json:"split"`
}

// Result is one scenario's full scorecard.
type Result struct {
	// Scenario is the preset name; Summary its catalog line.
	Scenario string `json:"scenario"`
	Summary  string `json:"summary"`
	// Seed and Scale pin the world; Quick records the CI-sized variant.
	Seed  uint64  `json:"seed"`
	Scale float64 `json:"scale"`
	Quick bool    `json:"quick"`
	// Backend labels the resolver (always resolver.Name), and SetsDigest is
	// a SHA-256 over every scored alias-set partition in canonical order —
	// equal digests mean byte-identical alias sets. PartitionDigests breaks
	// the digest down per partition so a divergence names the partition that
	// differs instead of just "the hashes disagree".
	Backend          string            `json:"backend,omitempty"`
	SetsDigest       string            `json:"sets_digest,omitempty"`
	PartitionDigests []PartitionDigest `json:"partition_digests,omitempty"`
	// Devices / V4Addresses / V6Addresses size the measured world.
	Devices     int `json:"devices"`
	V4Addresses int `json:"v4_addresses"`
	V6Addresses int `json:"v6_addresses"`
	// Protocols holds the per-protocol ground-truth scores (ssh, bgp,
	// snmpv3, in that order).
	Protocols []ProtocolScore `json:"protocols"`
	// UnionSetsV4 / UnionSetsV6 / DualStackSets are the cross-protocol
	// yields the paper headlines.
	UnionSetsV4   int `json:"union_sets_v4"`
	UnionSetsV6   int `json:"union_sets_v6"`
	DualStackSets int `json:"dual_stack_sets"`
	// MIDAR is the IPID-validation tally.
	MIDAR MIDARScore `json:"midar"`
}

// Report is the merged, machine-readable scenario scorecard — the
// SCENARIOS.json artifact CI uploads.
type Report struct {
	// Scenarios holds one Result per run preset, in canonical order.
	Scenarios []*Result `json:"scenarios"`
	// Longitudinal holds one multi-epoch result per (preset, epochs) run, in
	// canonical order — the CI longitudinal matrix contributes these.
	Longitudinal []*LongitudinalResult `json:"longitudinal,omitempty"`
}

// MarshalIndent renders the report as the canonical SCENARIOS.json bytes.
func (r *Report) MarshalIndent() ([]byte, error) {
	SortResults(r.Scenarios)
	SortLongitudinal(r.Longitudinal)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseReport decodes SCENARIOS.json bytes.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("scenario: parsing report: %w", err)
	}
	return &r, nil
}

// Merge combines several reports into one, keeping canonical order.
func Merge(parts ...*Report) *Report {
	out := &Report{}
	for _, p := range parts {
		if p != nil {
			out.Scenarios = append(out.Scenarios, p.Scenarios...)
			out.Longitudinal = append(out.Longitudinal, p.Longitudinal...)
		}
	}
	SortResults(out.Scenarios)
	SortLongitudinal(out.Longitudinal)
	return out
}

// Run builds the named preset's world, measures it from both vantage points
// through the standard pipeline, and scores the inference against ground
// truth. Results are deterministic for a fixed (name, Options).
func Run(name string, opts Options) (*Result, error) {
	p, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown preset %q (have: %s)",
			name, strings.Join(Names(), ", "))
	}
	return runPreset(p, opts)
}

// WorldScale is the scale of the world a run of p with opts builds: an
// explicit opts.Scale, else the preset's quick or full scale.
func (p Preset) WorldScale(opts Options) float64 {
	switch {
	case opts.Scale > 0:
		return opts.Scale
	case opts.Quick:
		return p.QuickScale
	default:
		return p.Scale
	}
}

// validate refuses options no run can honour: a Scale that is neither 0 nor
// a finite positive number. runPreset and newLongRun, the two paths every
// entry point builds its world through, call it first.
func (o Options) validate() error {
	if o.Scale < 0 || math.IsNaN(o.Scale) || math.IsInf(o.Scale, 1) {
		return fmt.Errorf("scenario: scale must be 0 (the preset's own) or a finite positive number, got %v", o.Scale)
	}
	return nil
}

// resolveConfig turns a preset and run options into the world configuration,
// also reporting whether the quick (CI-sized) variant was selected.
func resolveConfig(p Preset, opts Options) (cfg topo.Config, quick bool) {
	cfg = topo.Default()
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	// An explicit Scale overrides Quick entirely (sizing and sampling), as
	// the Options doc promises.
	quick = opts.Quick && opts.Scale <= 0
	cfg.Scale = p.WorldScale(opts)
	if p.Tune != nil {
		p.Tune(&cfg)
	}
	return cfg, quick
}

// envOptions assembles the experiments options for a resolved preset world.
func envOptions(p Preset, cfg topo.Config, opts Options) experiments.Options {
	faults := p.Faults
	faults.Seed = cfg.Seed
	return experiments.Options{
		Topo:          cfg,
		Scan:          experiments.ScanOptions{Seed: cfg.Seed},
		ChurnFraction: p.Churn,
		Faults:        faults,
		StreamCollect: opts.StreamCollect,
	}
}

// runPreset measures one (possibly sweep-modified) preset and scores it.
func runPreset(p Preset, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if p.StreamOnly && !opts.StreamCollect {
		return nil, fmt.Errorf("scenario %s: this world only runs out-of-core; pass -stream-collect", p.Name)
	}
	cfg, quick := resolveConfig(p, opts)
	eopts := envOptions(p, cfg, opts)
	if opts.LogDir != "" {
		lg, err := obslog.Create(opts.LogDir, obslog.RunMeta{
			Scenario: p.Name,
			Seed:     cfg.Seed,
			Scale:    cfg.Scale,
			Quick:    quick,
			Backend:  resolver.Name,
			Epochs:   1,
		}, obslog.Options{})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", p.Name, err)
		}
		defer lg.Close()
		eopts.Log = lg
		eopts.EpochDigest = func(ep *experiments.Epoch) (string, error) {
			d, _ := DigestPartitions(ScoredPartitions(ep.Env))
			return d, nil
		}
	}
	env, err := experiments.BuildEnv(eopts)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", p.Name, err)
	}
	res := score(p, cfg, quick, env, env.World.Truth)
	// Closing removes a stream-collected run's temporary spill.
	if err := env.Close(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", p.Name, err)
	}
	return res, nil
}

// score assembles the Result from a measured environment, judged against the
// supplied ground truth (the world's live truth for single-snapshot runs, a
// per-epoch snapshot for longitudinal ones).
func score(p Preset, cfg topo.Config, quick bool, env *experiments.Env, truth *topo.Truth) *Result {
	res := &Result{
		Scenario:    p.Name,
		Summary:     p.Summary,
		Seed:        cfg.Seed,
		Scale:       cfg.Scale,
		Quick:       quick,
		Backend:     resolver.Name,
		Devices:     env.World.Fabric.NumDevices(),
		V4Addresses: len(env.Both.AllAddrs(experiments.V4)),
		V6Addresses: len(env.Both.AllAddrs(experiments.V6)),
		UnionSetsV4: len(env.UnionFamilyNonSingleton(true)),
		UnionSetsV6: len(env.UnionFamilyNonSingleton(false)),
	}
	res.DualStackSets = len(env.DualStackSets())

	truthFor := map[ident.Protocol]map[string][]netip.Addr{
		ident.SSH:  truth.SSHAddrs,
		ident.BGP:  truth.BGPAddrs,
		ident.SNMP: truth.SNMPAddrs,
	}
	for _, proto := range []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP} {
		// Score the dataset the analysis actually consumes: the
		// Active∪Censys union, whose SNMPv3 is the active scan's (its
		// single source, as in the paper).
		ds := env.Both
		owner := evaluate.OwnerMap(truthFor[proto])
		sets := ds.NonSingletonSets(proto)
		m := evaluate.Pairwise(sets, owner)
		// Empty ground truth means the world has no such service; report
		// zero coverage rather than a vacuous perfect score, so a preset
		// that fully disables a protocol cannot pass a coverage gate.
		observed := len(ds.Addrs(proto, nil))
		cov := 0.0
		if len(owner) > 0 {
			cov = float64(observed) / float64(len(owner))
		}
		res.Protocols = append(res.Protocols, ProtocolScore{
			Protocol:      proto.String(),
			Precision:     m.Precision(),
			Recall:        m.Recall(),
			F1:            m.F1(),
			Coverage:      cov,
			ObservedAddrs: observed,
			TruthAddrs:    len(owner),
			AliasSets:     len(sets),
			TruePairs:     m.TruePairs,
			FalsePairs:    m.FalsePairs,
			MissedPairs:   m.MissedPairs,
		})
	}

	// The MIDAR tally: paper-scaled sample on full runs, a fixed small
	// sample in quick mode so the CI matrix stays fast.
	maxSets := 0
	if quick {
		maxSets = 15
	}
	run := env.MIDARRun(maxSets, midar.Config{})
	res.MIDAR = MIDARScore{
		Sampled:      run.Tally.Unverifiable + run.Tally.Confirmed + run.Tally.Split,
		Unverifiable: run.Tally.Unverifiable,
		Confirmed:    run.Tally.Confirmed,
		Split:        run.Tally.Split,
	}
	res.SetsDigest, res.PartitionDigests = DigestPartitions(ScoredPartitions(env))
	return res
}

// Partition is one named alias-set partition contributing to a sets digest.
type Partition struct {
	// Name is the canonical partition key ("ssh", "union-v4", "dualstack").
	Name string
	// Sets is the partition in canonical order.
	Sets []alias.Set
}

// PartitionDigest is one partition's contribution to a sets digest, keyed so
// that a divergence (between runs, or between a run and the daemon) can name
// the first partition that differs.
type PartitionDigest struct {
	Partition string `json:"partition"`
	Digest    string `json:"digest"`
}

// PartitionNames lists the scored partitions in canonical order: the
// per-protocol non-singleton groups, the per-family union partitions, and
// the dual-stack sets. Every partition list (ScoredPartitions,
// SessionPartitions) and digest breakdown follows this order.
var PartitionNames = []string{"ssh", "bgp", "snmpv3", "union-v4", "union-v6", "dualstack"}

// ScoredPartitions lists every alias-set partition a scorecard reads, in
// PartitionNames order: the union dataset's per-protocol non-singleton
// groups (its SNMPv3 groups are the active scan's), the per-family union
// partitions, and the dual-stack sets.
func ScoredPartitions(env *experiments.Env) []Partition {
	parts := make([]Partition, len(PartitionNames))
	for i, name := range PartitionNames {
		var sets []alias.Set
		switch {
		case i < len(scoreProtos):
			sets = env.Both.NonSingletonSets(scoreProtos[i])
		case name == "dualstack":
			sets = env.DualStackSets()
		default:
			sets = env.UnionFamilyNonSingleton(name == "union-v4")
		}
		parts[i] = Partition{Name: name, Sets: sets}
	}
	return parts
}

// SessionPartitions derives every scored partition of an open resolver
// session, in PartitionNames order, through one SessionView. It mirrors
// ScoredPartitions partition for partition, so a session's sets digest is
// directly comparable with a scorecard's. cmd/resolve reads its views here.
func SessionPartitions(s resolver.Session) []Partition {
	return NewSessionView(s).Partitions()
}

// SessionView derives the scored partitions of one open resolver session
// lazily: each protocol's snapshot (NonSingletonSets, which never copies or
// sorts a one-address set) is taken at most once, on first use, and each
// named partition is derived at most once from those snapshots, so every
// partition read through one view comes from the same snapshots. A reader
// asking for one partition pays only for that partition and its inputs: a
// protocol partition takes one snapshot; a union or the dual-stack partition
// takes all three and merges once.
//
// Only non-singleton sets enter the filters and merges. A singleton carries
// no alias information: family filtering leaves at most a singleton, which
// NonSingleton drops, and it adds no union edge, so merging it only adds a
// one-address component, which DualStack drops. The partitions are therefore
// byte-identical to deriving them from the full snapshots.
//
// A SessionView is safe for concurrent use. Observations the session applies
// after a snapshot was taken do not reach this view; open a new one to see
// them.
type SessionView struct {
	// derive holds one memoized derivation per partition, in PartitionNames
	// order.
	derive [6]func() []alias.Set
}

// NewSessionView opens a lazy view over s; it derives nothing until read.
func NewSessionView(s resolver.Session) *SessionView {
	var protos [3]func() []alias.Set // by ident.Protocol
	for _, p := range scoreProtos {
		protos[p] = sync.OnceValue(func() []alias.Set { return s.NonSingletonSets(p) })
	}
	union := func(v4 bool) func() []alias.Set {
		return sync.OnceValue(func() []alias.Set {
			return s.Merged(
				alias.NonSingleton(alias.FilterFamily(protos[ident.SSH](), v4)),
				alias.NonSingleton(alias.FilterFamily(protos[ident.BGP](), v4)),
				alias.NonSingleton(alias.FilterFamily(protos[ident.SNMP](), v4)),
			)
		})
	}
	dual := sync.OnceValue(func() []alias.Set {
		return alias.DualStack(s.Merged(protos[ident.SSH](), protos[ident.BGP](), protos[ident.SNMP]()))
	})
	return &SessionView{derive: [6]func() []alias.Set{
		protos[ident.SSH], protos[ident.BGP], protos[ident.SNMP], union(true), union(false), dual,
	}}
}

// Partition returns the named partition (one of PartitionNames), deriving it
// and the snapshots it reads on first use. It reports false for an unknown
// name.
func (v *SessionView) Partition(name string) ([]alias.Set, bool) {
	i := slices.Index(PartitionNames, name)
	if i < 0 {
		return nil, false
	}
	return v.derive[i](), true
}

// Partitions derives every partition in PartitionNames order.
func (v *SessionView) Partitions() []Partition {
	parts := make([]Partition, len(PartitionNames))
	for i, name := range PartitionNames {
		parts[i] = Partition{Name: name, Sets: v.derive[i]()}
	}
	return parts
}

// DigestPartitions hashes named alias-set partitions in order and returns the
// combined hex digest plus the per-partition breakdown. Two runs with equal
// combined digests produced byte-identical alias sets, and unequal runs
// locate the first differing partition through the breakdown. The resolution
// daemon hashes its session views through the same helper, so its digests are
// directly comparable with scorecard digests over the same partitions.
func DigestPartitions(parts []Partition) (string, []PartitionDigest) {
	h := sha256.New()
	breakdown := make([]PartitionDigest, 0, len(parts))
	for _, part := range parts {
		ph := sha256.New()
		for _, s := range part.Sets {
			ph.Write([]byte(s.Key()))
			ph.Write([]byte{0})
		}
		ph.Write([]byte{0xff})
		sum := ph.Sum(nil)
		h.Write(sum)
		breakdown = append(breakdown, PartitionDigest{
			Partition: part.Name,
			Digest:    hex.EncodeToString(sum),
		})
	}
	return hex.EncodeToString(h.Sum(nil)), breakdown
}

// backendName reports the resolver label, defaulting legacy reports to
// resolver.Name.
func (r *Result) backendName() string {
	if r.Backend == "" {
		return resolver.Name
	}
	return r.Backend
}

// RenderText prints one result as a human-readable block (the CLI's default
// output).
func (r *Result) RenderText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %-12s %s\n", r.Scenario, r.Summary)
	fmt.Fprintf(&sb, "  world: seed=%d scale=%.2f devices=%d addrs=%d(v4)+%d(v6) backend=%s\n",
		r.Seed, r.Scale, r.Devices, r.V4Addresses, r.V6Addresses, r.backendName())
	fmt.Fprintf(&sb, "  union sets: %d(v4) %d(v6)  dual-stack: %d\n",
		r.UnionSetsV4, r.UnionSetsV6, r.DualStackSets)
	fmt.Fprintf(&sb, "  %-8s %9s %9s %9s %9s %7s\n",
		"protocol", "precision", "recall", "f1", "coverage", "sets")
	for _, p := range r.Protocols {
		fmt.Fprintf(&sb, "  %-8s %9.4f %9.4f %9.4f %9.4f %7d\n",
			p.Protocol, p.Precision, p.Recall, p.F1, p.Coverage, p.AliasSets)
	}
	fmt.Fprintf(&sb, "  midar: sampled=%d confirmed=%d split=%d unverifiable=%d\n",
		r.MIDAR.Sampled, r.MIDAR.Confirmed, r.MIDAR.Split, r.MIDAR.Unverifiable)
	return sb.String()
}
