package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/evaluate"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/iffinder"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/ptrdns"
	"aliaslimit/internal/topo"
)

// This file implements the paper's stated future-work agenda (§5) as
// runnable extension experiments:
//
//   - multiple vantage points ("understand the effect of geographical VP
//     location"),
//   - SSH identifier consistency and stability over time,
//
// plus the historical iffinder baseline the introduction motivates against.

// VantageCoverage is one row of the multi-vantage experiment: cumulative
// SSH coverage after combining the first K vantage points.
type VantageCoverage struct {
	// Vantages is the number of combined vantage points.
	Vantages int
	// IPs is the cumulative count of identifiable SSH IPv4 addresses.
	IPs int
	// NewIPs is the marginal gain of the last vantage added.
	NewIPs int
	// AliasSets is the cumulative non-singleton IPv4 set count.
	AliasSets int
}

// MultiVantage scans SSH from up to maxVantages auxiliary vantage points and
// reports cumulative coverage — the diminishing-returns curve a multi-VP
// deployment would see. maxVantages is capped at topo.AuxVantages.
func MultiVantage(w *topo.World, maxVantages int) ([]VantageCoverage, error) {
	if maxVantages <= 0 || maxVantages > topo.AuxVantages {
		maxVantages = topo.AuxVantages
	}
	opts := ScanOptions{}.withDefaults()
	seen := make(map[netip.Addr]bool)
	var combined []alias.Observation
	var out []VantageCoverage
	for k := 0; k < maxVantages; k++ {
		v := w.Fabric.Vantage(topo.AuxVantage(k))
		ds, err := collect(topo.AuxVantage(k), opts, func(o ScanOptions) error {
			return scanSSH(v, w.V4Universe(), o)
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: vantage %d: %w", k, err)
		}
		newIPs := 0
		for _, o := range ds.Obs[ident.SSH] {
			if !seen[o.Addr] {
				seen[o.Addr] = true
				newIPs++
			}
			combined = append(combined, o)
		}
		sets := alias.NonSingleton(alias.FilterFamily(alias.Group(combined), true))
		out = append(out, VantageCoverage{
			Vantages:  k + 1,
			IPs:       len(seen),
			NewIPs:    newIPs,
			AliasSets: len(sets),
		})
	}
	return out, nil
}

// RenderMultiVantage prints the coverage curve as a table.
func RenderMultiVantage(rows []VantageCoverage) string {
	t := &Table{
		ID:     "Extension A",
		Title:  "Cumulative SSH coverage by number of vantage points",
		Header: []string{"Vantages", "IPs", "New IPs", "Alias sets"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Vantages), count(r.IPs), count(r.NewIPs), count(r.AliasSets),
		})
	}
	return t.Render()
}

// StabilityResult summarises identifier persistence between two scans of the
// same vantage separated by churn and time.
type StabilityResult struct {
	// Gap is the simulated time between the scans.
	Gap time.Duration
	// Persisted counts addresses with the same SSH identifier both times.
	Persisted int
	// Changed counts addresses that answered both times with different
	// identifiers (the address moved to another machine).
	Changed int
	// Gone counts addresses identifiable only in the first scan.
	Gone int
	// New counts addresses identifiable only in the second scan.
	New int
}

// PersistenceRate is Persisted / (addresses seen in the first scan).
func (r StabilityResult) PersistenceRate() float64 {
	den := r.Persisted + r.Changed + r.Gone
	if den == 0 {
		return 0
	}
	return float64(r.Persisted) / float64(den)
}

// Stability scans SSH, advances the world by gap applying churnFrac address
// churn, rescans, and compares identifiers per address — the paper's
// "consistency and stability" question made operational.
func Stability(w *topo.World, gap time.Duration, churnFrac float64) (*StabilityResult, error) {
	opts := ScanOptions{}.withDefaults()
	v := w.Fabric.Vantage(topo.VantageActive)

	scan := func(o ScanOptions) error { return scanSSH(v, w.V4Universe(), o) }
	first, err := collect("t0", opts, scan)
	if err != nil {
		return nil, err
	}
	w.Clock.Advance(gap)
	w.ApplyChurn(churnFrac, 7001)
	second, err := collect("t1", opts, scan)
	if err != nil {
		return nil, err
	}

	firstID := make(map[netip.Addr]string)
	for _, o := range first.Obs[ident.SSH] {
		firstID[o.Addr] = o.ID.Digest
	}
	res := &StabilityResult{Gap: gap}
	secondSeen := make(map[netip.Addr]bool)
	for _, o := range second.Obs[ident.SSH] {
		secondSeen[o.Addr] = true
		d0, was := firstID[o.Addr]
		switch {
		case !was:
			res.New++
		case d0 == o.ID.Digest:
			res.Persisted++
		default:
			res.Changed++
		}
	}
	for a := range firstID {
		if !secondSeen[a] {
			res.Gone++
		}
	}
	return res, nil
}

// BaselineComparison reports the yield of every technique on one world: the
// motivation table for the paper's introduction (why protocol-centric
// identifiers beat the classical methods).
type BaselineComparison struct {
	// Technique names the method.
	Technique string
	// Sets is the non-singleton IPv4 alias-set count.
	Sets int
	// CoveredAddrs is the number of addresses in those sets.
	CoveredAddrs int
}

// CompareBaselines runs iffinder over the IPv4 universe and tabulates it
// against the protocol-centric results already in the environment.
func (e *Env) CompareBaselines() []BaselineComparison {
	iff := iffinder.Resolve(e.World.Fabric.Vantage(topo.VantageActive), e.World.V4Universe())
	rows := []BaselineComparison{
		{Technique: "iffinder (common source addr)", Sets: len(iff.Sets), CoveredAddrs: alias.CoveredAddrs(iff.Sets)},
	}
	for _, p := range []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP} {
		sets := e.Active.NonSingletonFamilySets(p, true)
		rows = append(rows, BaselineComparison{
			Technique: p.String() + " identifier",
			Sets:      len(sets), CoveredAddrs: alias.CoveredAddrs(sets),
		})
	}
	return rows
}

// RenderBaselines prints the comparison.
func RenderBaselines(rows []BaselineComparison) string {
	t := &Table{
		ID:     "Extension B",
		Title:  "Technique yield on one world (IPv4, non-singleton sets)",
		Header: []string{"Technique", "Sets", "Covered addrs"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Technique, count(r.Sets), count(r.CoveredAddrs)})
	}
	return t.Render()
}

// SpeedtrapValidation verifies sampled IPv6 SSH alias sets with the
// Speedtrap fragment-ID pipeline — the IPv6 counterpart of the paper's
// SSH-MIDAR comparison. Coverage is even thinner than MIDAR's: most IPv6
// devices never emit fragment identifiers at all.
type SpeedtrapValidation struct {
	// Sampled is the number of candidate IPv6 SSH sets tested.
	Sampled int
	// Tally splits the sample into unverifiable sets (fewer than two usable
	// fragment-ID counters), confirmed ones and ones Speedtrap fractured.
	midar.Tally
}

// ValidateWithSpeedtrap runs the IPv6 validation over up to maxSets
// candidate sets drawn from the active SSH scan.
func (e *Env) ValidateWithSpeedtrap(maxSets int) SpeedtrapValidation {
	sets := e.Active.NonSingletonFamilySets(ident.SSH, false)
	var eligible []alias.Set
	for _, s := range sets {
		if s.Size() <= 10 {
			eligible = append(eligible, s)
		}
	}
	if maxSets > 0 && len(eligible) > maxSets {
		eligible = eligible[:maxSets]
	}
	session := midar.NewSpeedtrapSession(e.World.Fabric.Vantage(topo.VantageMIDAR), e.World.Clock)
	_, tally := session.VerifySets(eligible)
	return SpeedtrapValidation{Sampled: len(eligible), Tally: tally}
}

// PTRComparison contrasts the DNS-based dual-stack inference with the
// identifier-based one on the same world — the paper's related-work
// comparison made concrete.
type PTRComparison struct {
	// PTRSets is the count of PTR-derived dual-stack sets.
	PTRSets int
	// IdentifierSets is the identifier-derived union dual-stack count.
	IdentifierSets int
	// Confirmed / Contradicted / Uncovered classify the PTR sets against
	// the identifier partition.
	Confirmed, Contradicted, Uncovered int
}

// ComparePTRDualStack runs the DNS baseline against the identifier results.
func (e *Env) ComparePTRDualStack() PTRComparison {
	ptrSets := ptrdns.InferDualStack(e.World.PTR)
	identifierSets := e.DualStackSets()
	c := ptrdns.CompareAgainst(ptrSets, identifierSets)
	return PTRComparison{
		PTRSets:        len(ptrSets),
		IdentifierSets: len(identifierSets),
		Confirmed:      c.Confirmed,
		Contradicted:   c.Contradicted,
		Uncovered:      c.Uncovered,
	}
}

// RenderPTRComparison prints the comparison.
func RenderPTRComparison(r PTRComparison) string {
	t := &Table{
		ID:     "Extension D",
		Title:  "DNS PTR dual-stack inference vs identifier-based sets",
		Header: []string{"Quantity", "Value"},
		Rows: [][]string{
			{"PTR dual-stack sets", count(r.PTRSets)},
			{"Identifier dual-stack sets", count(r.IdentifierSets)},
			{"PTR sets confirmed by identifiers", count(r.Confirmed)},
			{"PTR sets contradicted", count(r.Contradicted)},
			{"PTR sets not covered by identifiers", count(r.Uncovered)},
		},
	}
	return t.Render()
}

// AccuracyReport scores the inference against the simulator's ground truth —
// the evaluation the paper could not run on the real Internet. Each row is
// one protocol's pairwise precision/recall over the active scan.
type AccuracyReport struct {
	// Protocol names the technique.
	Protocol string
	// Precision, Recall, F1 are pairwise clustering scores.
	Precision, Recall, F1 float64
	// TruePairs/FalsePairs/MissedPairs are the raw counts.
	TruePairs, FalsePairs, MissedPairs int
}

// EvaluateAccuracy computes ground-truth accuracy per protocol.
func (e *Env) EvaluateAccuracy() []AccuracyReport {
	truthFor := map[ident.Protocol]map[string][]netip.Addr{
		ident.SSH:  e.World.Truth.SSHAddrs,
		ident.BGP:  e.World.Truth.BGPAddrs,
		ident.SNMP: e.World.Truth.SNMPAddrs,
	}
	var out []AccuracyReport
	for _, p := range []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP} {
		owner := evaluate.OwnerMap(truthFor[p])
		sets := e.Active.NonSingletonSets(p)
		m := evaluate.Pairwise(sets, owner)
		out = append(out, AccuracyReport{
			Protocol:  p.String(),
			Precision: m.Precision(), Recall: m.Recall(), F1: m.F1(),
			TruePairs: m.TruePairs, FalsePairs: m.FalsePairs, MissedPairs: m.MissedPairs,
		})
	}
	return out
}

// RenderAccuracy prints the accuracy table.
func RenderAccuracy(rows []AccuracyReport) string {
	t := &Table{
		ID:     "Extension E",
		Title:  "Ground-truth accuracy of the inference (pairwise, active scan)",
		Header: []string{"Protocol", "Precision", "Recall", "F1", "TP", "FP", "FN"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Protocol,
			fmt.Sprintf("%.4f", r.Precision),
			fmt.Sprintf("%.4f", r.Recall),
			fmt.Sprintf("%.4f", r.F1),
			count(r.TruePairs), count(r.FalsePairs), count(r.MissedPairs),
		})
	}
	t.Notes = append(t.Notes,
		"false pairs stem from fleet/factory SSH keys and snapshot churn (the paper's §2.7 limits)",
		"missed pairs stem from service ACLs and per-interface capability variation")
	return t.Render()
}
