// Package aliaslimit is a reproduction of "Pushing Alias Resolution to the
// Limit" (Albakour, Gasser, Smaragdakis — ACM IMC 2023): protocol-centric IP
// alias resolution and dual-stack inference from SSH and BGP application-
// layer identifiers, evaluated against the SNMPv3 and MIDAR baselines.
//
// The package is the high-level facade. It builds a deterministic synthetic
// Internet (the stand-in for the paper's Internet-wide scans), measures it
// from the paper's two vantage points, runs the inference pipeline, and
// renders every table and figure of the paper's evaluation. The underlying
// machinery lives in internal/ packages:
//
//	netsim, topo      — the simulated Internet
//	sshwire, bgp,     — real wire-protocol implementations
//	snmpv3
//	zmaplite, zgrab   — the two-phase scanning pipeline
//	ident, alias      — the paper's contribution: identifiers and grouping
//	midar, iffinder   — classical baselines
//	experiments       — the per-table/per-figure harnesses
//
// Quick start:
//
//	study, err := aliaslimit.Run(aliaslimit.StudyOptions{
//		Common: aliaslimit.Common{Scale: 0.1},
//	})
//	if err != nil { ... }
//	defer study.Close()
//	fmt.Println(study.RenderTable("Table 3"))
package aliaslimit

import (
	"fmt"
	"net/netip"
	"strings"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/scenario"
	"aliaslimit/internal/topo"
)

// Protocol selects one of the identifier-bearing protocols.
type Protocol string

// The protocols the paper evaluates.
const (
	SSH    Protocol = "ssh"
	BGP    Protocol = "bgp"
	SNMPv3 Protocol = "snmpv3"
)

// toIdent maps the public protocol name to the internal enum.
func (p Protocol) toIdent() (ident.Protocol, error) {
	switch p {
	case SSH:
		return ident.SSH, nil
	case BGP:
		return ident.BGP, nil
	case SNMPv3:
		return ident.SNMP, nil
	default:
		return 0, fmt.Errorf("aliaslimit: unknown protocol %q", string(p))
	}
}

// Unified options surface. Every run-shaped entry point — Run, RunScenario
// and RunLongitudinal — shares one set of knobs, embedded as Common in the
// entry point's options struct, so the same field means the same thing
// everywhere and a new knob lands in every entry point at once.

// Common holds the options shared by every facade entry point. Concurrency
// is not among them: scan pools and world generation size themselves from
// GOMAXPROCS, and results are byte-identical at any value.
type Common struct {
	// Seed makes the run reproducible; 0 picks each entry point's default.
	Seed uint64
	// Scale sizes the synthetic Internet. 1.0 ≈ 1:1000 of the paper's
	// measurement (~60k addresses); 0 picks the entry point's default
	// (0.25 for Run, the preset's own scale for scenarios).
	Scale float64
	// StreamCollect selects the out-of-core collection path: scan workers
	// spill observations straight to an on-disk observation log and the
	// analyses replay them in bounded batches, so peak memory is
	// O(alias-set output), not O(observations). Alias sets, tables, and
	// scorecards are byte-identical to the in-RAM path. Dataset.Obs is
	// empty in this mode; iterate through Dataset.EachObs or the derived
	// views instead.
	StreamCollect bool
}

// StudyOptions configure Run. Between the Censys snapshot and the active
// scan, 2% of the dynamic addresses are reassigned.
type StudyOptions struct {
	Common
}

// Study is a completed measurement: world, datasets, and analyses.
type Study struct {
	env *experiments.Env
}

// Run builds the world, performs both measurement campaigns, and returns
// the study. Close it when done: a StreamCollect study removes its
// temporary observation spill there.
func Run(opts StudyOptions) (*Study, error) {
	cfg := topo.Default()
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Scale != 0 {
		cfg.Scale = opts.Scale
	} else {
		cfg.Scale = 0.25
	}
	env, err := experiments.BuildEnv(experiments.Options{
		Topo:          cfg,
		Scan:          experiments.ScanOptions{Seed: cfg.Seed},
		StreamCollect: opts.StreamCollect,
	})
	if err != nil {
		return nil, err
	}
	return &Study{env: env}, nil
}

// Close removes a StreamCollect study's temporary observation spill; for an
// in-RAM study it does nothing. Safe to call more than once; the analysis
// views stay readable because every view is memoized on first use.
func (s *Study) Close() error {
	if s.env == nil {
		return nil
	}
	return s.env.Close()
}

// Env exposes the measured environment for the repository's own
// benchmarking and diagnostic tools (cmd/benchtables). It returns an
// internal type; out-of-module consumers should use the stable Study
// accessors instead.
func (s *Study) Env() *experiments.Env { return s.env }

// TableIDs lists the regenerable tables in paper order.
func (s *Study) TableIDs() []string {
	return []string{"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6"}
}

// FigureIDs lists the regenerable figures in paper order.
func (s *Study) FigureIDs() []string {
	return []string{"Figure 3", "Figure 4", "Figure 5", "Figure 6"}
}

// RenderTable regenerates one of the paper's tables as text.
func (s *Study) RenderTable(id string) (string, error) {
	switch normalizeID(id) {
	case "table1", "1":
		return s.env.Table1().Render(), nil
	case "table2", "2":
		return s.env.Table2().Render(), nil
	case "table3", "3":
		return s.env.Table3().Render(), nil
	case "table4", "4":
		return s.env.Table4().Render(), nil
	case "table5", "5":
		return s.env.Table5().Render(), nil
	case "table6", "6":
		return s.env.Table6().Render(), nil
	default:
		return "", fmt.Errorf("aliaslimit: unknown table %q", id)
	}
}

// RenderFigure regenerates one of the paper's figures as a text table of
// ECDF values.
func (s *Study) RenderFigure(id string) (string, error) {
	switch normalizeID(id) {
	case "figure3", "3":
		return s.env.Figure3().Render(), nil
	case "figure4", "4":
		return s.env.Figure4().Render(), nil
	case "figure5", "5":
		return s.env.Figure5().Render(), nil
	case "figure6", "6":
		return s.env.Figure6().Render(), nil
	default:
		return "", fmt.Errorf("aliaslimit: unknown figure %q", id)
	}
}

// RenderAll regenerates every table and figure. The artifacts are generated
// concurrently (they share the env's memoized analysis views), and the
// output is byte-identical to rendering each artifact in paper order.
func (s *Study) RenderAll() string {
	return s.env.RenderAll()
}

// RenderExtensions runs the future-work extension experiments (multi-vantage
// coverage and the baseline-technique comparison) and renders both tables.
// It scans the world from the auxiliary vantage points, so it costs roughly
// one extra measurement campaign.
func (s *Study) RenderExtensions() (string, error) {
	var sb strings.Builder
	rows, err := experiments.MultiVantage(s.env.World, 4)
	if err != nil {
		return "", err
	}
	sb.WriteString(experiments.RenderMultiVantage(rows))
	sb.WriteByte('\n')
	sb.WriteString(experiments.RenderBaselines(s.env.CompareBaselines()))
	sb.WriteByte('\n')
	sv := s.env.ValidateWithSpeedtrap(40)
	fmt.Fprintf(&sb, "Extension C: Speedtrap (IPv6 fragment-ID) verification of SSH sets\n")
	fmt.Fprintf(&sb, "sampled %d IPv6 SSH sets: confirmed=%d split=%d unverifiable=%d\n\n",
		sv.Sampled, sv.Confirmed, sv.Split, sv.Unverifiable)
	sb.WriteString(experiments.RenderPTRComparison(s.env.ComparePTRDualStack()))
	sb.WriteByte('\n')
	sb.WriteString(experiments.RenderAccuracy(s.env.EvaluateAccuracy()))
	return sb.String(), nil
}

// normalizeID canonicalises "Table 3" / "table-3" / "3" style identifiers.
func normalizeID(id string) string {
	id = strings.ToLower(id)
	id = strings.NewReplacer(" ", "", "-", "", "_", "").Replace(id)
	return id
}

// AliasSets returns the non-singleton alias sets a protocol's union dataset
// yields, one sorted address list per set; SNMPv3's are the active scan's,
// its single source, as in the paper. v4 selects the address family.
func (s *Study) AliasSets(p Protocol, v4 bool) ([][]netip.Addr, error) {
	ip, err := p.toIdent()
	if err != nil {
		return nil, err
	}
	return setsToAddrs(s.env.Both.NonSingletonFamilySets(ip, v4)), nil
}

// UnionAliasSets returns the cross-protocol union alias sets for one family.
func (s *Study) UnionAliasSets(v4 bool) [][]netip.Addr {
	return setsToAddrs(s.env.UnionFamilyNonSingleton(v4))
}

// DualStackSets returns the union dual-stack sets (each spans both
// families).
func (s *Study) DualStackSets() [][]netip.Addr {
	return setsToAddrs(s.env.DualStackSets())
}

// Validation runs the paper's cross-protocol validation for a protocol pair
// over the active measurement and reports (sample, agree, disagree).
func (s *Study) Validation(a, b Protocol) (sample, agree, disagree int, err error) {
	ia, err := a.toIdent()
	if err != nil {
		return 0, 0, 0, err
	}
	ib, err := b.toIdent()
	if err != nil {
		return 0, 0, 0, err
	}
	_, res := s.env.ValidatePair(ia, ib)
	return res.Sample, res.Agree, res.Disagree, nil
}

// MIDARValidation verifies up to maxSets sampled SSH alias sets with the
// IPID pipeline and reports the tally (unverifiable, confirmed, split).
// maxSets <= 0 selects the paper-scaled default sample (61 sets at Scale 1),
// exactly as Table 2 does: both share the same memoized verification run
// instead of probing the fabric twice.
func (s *Study) MIDARValidation(maxSets int) (unverifiable, confirmed, split int) {
	run := s.env.MIDARRun(maxSets, midar.Config{})
	return run.Tally.Unverifiable, run.Tally.Confirmed, run.Tally.Split
}

// setsToAddrs converts internal sets into plain address slices.
func setsToAddrs(sets []alias.Set) [][]netip.Addr {
	out := make([][]netip.Addr, len(sets))
	for i, s := range sets {
		out[i] = append([]netip.Addr(nil), s.Addrs...)
	}
	return out
}

// Stats summarises the study at a glance.
type Stats struct {
	// V4Addresses / V6Addresses are the responsive address counts (union).
	V4Addresses, V6Addresses int
	// UnionAliasSetsV4 / V6 count non-singleton cross-protocol sets.
	UnionAliasSetsV4, UnionAliasSetsV6 int
	// DualStackSets counts union dual-stack sets.
	DualStackSets int
	// Devices is the number of simulated devices.
	Devices int
}

// Scenario engine. The paper evaluates one Internet; the scenario presets
// open the workload axis: adversarial worlds (packet loss, probe rate
// limiting, shared-key farms, disabled SNMP, hostile IPID policies, churn
// storms, IPv6-dominant and full-scale populations) that each run the
// identical collect→resolve→validate pipeline and score it against the
// simulator's ground truth. The result types are aliases of
// internal/scenario so callers get the full structured scorecards; the
// option types are facade-owned and share the Common surface above.
type (
	// ScenarioResult is one scenario's ground-truth scorecard.
	ScenarioResult = scenario.Result
	// LongitudinalResult is one preset's multi-epoch scorecard: per-epoch
	// precision/recall, identifier-persistence rates, alias-set survival
	// curves, and the longitudinal merge-strategy comparison.
	LongitudinalResult = scenario.LongitudinalResult
)

// ScenarioOptions parameterise RunScenario and, embedded, RunLongitudinal.
type ScenarioOptions struct {
	Common
	// Quick selects the preset's CI-sized world; Scale overrides it.
	Quick bool
}

// internal converts the facade options into the scenario engine's type.
func (o ScenarioOptions) internal() scenario.Options {
	return scenario.Options{
		Seed:          o.Seed,
		Scale:         o.Scale,
		Quick:         o.Quick,
		StreamCollect: o.StreamCollect,
	}
}

// LongitudinalOptions parameterise RunLongitudinal.
type LongitudinalOptions struct {
	ScenarioOptions
	// Epochs is the number of snapshot→churn→scan rounds; 0 picks 5, and
	// values below 2 are rejected (a single epoch is RunScenario's job).
	Epochs int
	// Decay is the decay factor of the decay-weighted longitudinal merge
	// strategy; 0 picks 0.5.
	Decay float64
}

// ScenarioNames lists the preset catalog in canonical order.
func ScenarioNames() []string { return scenario.Names() }

// RunScenario builds the named preset's world, runs the full measurement and
// inference pipeline on it, and returns per-protocol precision / recall /
// coverage against the simulation's ground-truth alias sets. Results are
// deterministic for a fixed (name, options) — including under fault
// injection, whose drop draws are quenched per wire rather than rolled in
// execution order.
func RunScenario(name string, opts ScenarioOptions) (*ScenarioResult, error) {
	return scenario.Run(name, opts.internal())
}

// RunLongitudinal runs the named preset over opts.Epochs successive
// snapshot→churn→scan rounds on one persistent world: between epochs the
// world renumbers addresses, reboots devices into fresh SSH keys and SNMPv3
// engine IDs, and takes interfaces down or back up, while ground truth is
// snapshotted at every epoch's scan time so each epoch stays scorable. On
// top of the per-epoch scorecards it reports identifier-persistence rates,
// alias-set survival curves, and a comparison of longitudinal merge
// strategies (naive cumulative union vs decay-weighted identifier history)
// against the final epoch's ground truth. Deterministic for a fixed
// (name, options) at any GOMAXPROCS.
func RunLongitudinal(name string, opts LongitudinalOptions) (*LongitudinalResult, error) {
	return scenario.RunLongitudinal(name, scenario.LongitudinalOptions{
		Options: opts.internal(),
		Epochs:  opts.Epochs,
		Decay:   opts.Decay,
	})
}

// Stats computes the summary from the env's cached views; after the first
// call every quantity is a memoized lookup.
func (s *Study) Stats() Stats {
	return Stats{
		V4Addresses:      len(s.env.Both.AllAddrs(experiments.V4)),
		V6Addresses:      len(s.env.Both.AllAddrs(experiments.V6)),
		UnionAliasSetsV4: len(s.env.UnionFamilyNonSingleton(true)),
		UnionAliasSetsV6: len(s.env.UnionFamilyNonSingleton(false)),
		DualStackSets:    len(s.env.DualStackSets()),
		Devices:          s.env.World.Fabric.NumDevices(),
	}
}
