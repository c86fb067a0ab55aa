package experiments

import (
	"fmt"
	"net/netip"
	"sort"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/asview"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/xrand"
)

// mapper builds the AS attribution view of the environment.
func (e *Env) mapper() asview.Mapper {
	return asview.FromMap(e.World.AddrASN)
}

// Table1 regenerates the service-scanning dataset overview: responsive IPs
// and covered ASes per protocol for the active measurement, Censys, and
// their union, IPv4 on top and (active-only) IPv6 below.
func (e *Env) Table1() *Table {
	m := e.mapper()
	t := &Table{
		ID:     "Table 1",
		Title:  "Service Scanning Dataset Overview",
		Header: []string{"Protocol", "Active #IPs", "Active #ASN", "Censys #IPs", "Censys #ASN", "Union #IPs", "Union #ASN"},
	}
	cell := func(ds *Dataset, p ident.Protocol, v4 *bool) (string, string) {
		addrs := ds.Addrs(p, v4)
		return count(len(addrs)), count(asview.CountASNs(m, addrs))
	}
	for _, p := range []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP} {
		aIPs, aAS := cell(e.Active, p, V4)
		var cIPs, cAS, uIPs, uAS string
		if p == ident.SNMP {
			cIPs, cAS, uIPs, uAS = "n.a", "n.a", "n.a", "n.a"
		} else {
			cIPs, cAS = cell(e.Censys, p, V4)
			uIPs, uAS = cell(e.Both, p, V4)
		}
		t.Rows = append(t.Rows, []string{p.String(), aIPs, aAS, cIPs, cAS, uIPs, uAS})
	}
	aAll := e.Active.AllAddrs(V4)
	cAll := e.Censys.AllAddrs(V4)
	uAll := e.Both.AllAddrs(V4)
	t.Rows = append(t.Rows, []string{"Union",
		count(len(aAll)), count(asview.CountASNs(m, aAll)),
		count(len(cAll)), count(asview.CountASNs(m, cAll)),
		count(len(uAll)), count(asview.CountASNs(m, uAll)),
	})
	for _, p := range []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP} {
		aIPs, aAS := cell(e.Active, p, V6)
		t.Rows = append(t.Rows, []string{p.String() + " (IPv6)", aIPs, aAS, "n.a", "n.a", "n.a", "n.a"})
	}
	a6 := e.Active.AllAddrs(V6)
	t.Rows = append(t.Rows, []string{"Union (IPv6)",
		count(len(a6)), count(asview.CountASNs(m, a6)), "n.a", "n.a", "n.a", "n.a"})
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Censys additionally reports %s SSH IPs on non-standard ports (excluded, as in the paper)",
		count(e.Censys.NonStandardPortSSH)))
	return t
}

// ValidatePair runs the paper's §2.6 cross-protocol validation for two
// protocols over the active measurement, reusing the cached identifier
// groups and address universes: restrict both partitions to their common
// responsive addresses, then count exact-membership matches.
func (e *Env) ValidatePair(a, b ident.Protocol) (commonIPs int, res alias.ValidationResult) {
	common := commonAddrSet(e.Active.Addrs(a, nil), e.Active.Addrs(b, nil))
	aSets := alias.Restrict(e.Active.NonSingletonSets(a), common)
	bSets := alias.Restrict(e.Active.NonSingletonSets(b), common)
	return len(common), alias.MatchSets(aSets, bSets)
}

// commonAddrSet intersects two sorted address lists into a membership map.
func commonAddrSet(a, b []netip.Addr) map[netip.Addr]bool {
	common := make(map[netip.Addr]bool)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			common[a[i]] = true
			i++
			j++
		}
	}
	return common
}

// Table2 regenerates the alias-set validation table: cross-protocol
// exact-match comparisons on the active data and the SSH-vs-MIDAR run.
func (e *Env) Table2() *Table {
	t := &Table{
		ID:     "Table 2",
		Title:  "Alias Sets Validation",
		Header: []string{"Pair", "Common IPs", "Sample size", "Agree", "Disagree", "Agreement"},
	}
	pair := func(name string, a, b ident.Protocol) {
		common, res := e.ValidatePair(a, b)
		t.Rows = append(t.Rows, []string{
			name, count(common), count(res.Sample), count(res.Agree), count(res.Disagree),
			fmt.Sprintf("%.0f%%", 100*res.AgreementRate()),
		})
	}
	pair("SSH-BGP", ident.SSH, ident.BGP)
	pair("SSH-SNMPv3", ident.SSH, ident.SNMP)
	pair("BGP-SNMPv3", ident.BGP, ident.SNMP)

	// SSH vs MIDAR: sample non-singleton IPv4 SSH sets with at most ten
	// addresses (the paper's constraint to bound the run time), verify each
	// with the IPID pipeline. The sample scales the paper's 61k sets by the
	// world's Scale; the run is memoized per configuration.
	run := e.MIDARRun(0, midar.Config{})
	sample, tally := run.Sample, run.Tally
	verifiable := tally.Verifiable()
	rate := 0.0
	if verifiable > 0 {
		rate = float64(tally.Confirmed) / float64(verifiable)
	}
	t.Rows = append(t.Rows, []string{
		"SSH-MIDAR", count(len(sample)), count(verifiable),
		count(tally.Confirmed), count(tally.Split), fmt.Sprintf("%.0f%%", 100*rate),
	})
	frac := 0.0
	if len(sample) > 0 {
		frac = float64(verifiable) / float64(len(sample))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"MIDAR could verify %.0f%% of the sampled sets (%d of %d); the rest lack usable IPID counters",
		100*frac, verifiable, len(sample)))
	return t
}

// midarSample picks the candidate SSH sets for the MIDAR comparison.
func (e *Env) midarSample(max int) []alias.Set {
	if max <= 0 {
		max = int(61 * e.World.Cfg.Scale)
		if max < 5 {
			max = 5
		}
	}
	sets := e.Active.NonSingletonFamilySets(ident.SSH, true)
	var eligible []alias.Set
	for _, s := range sets {
		if s.Size() <= 10 {
			eligible = append(eligible, s)
		}
	}
	// Deterministic sample: shuffle by stable hash of the binary set key.
	sort.Slice(eligible, func(i, j int) bool {
		return xrand.Hash64("midar-sample", string(eligible[i].Key())) <
			xrand.Hash64("midar-sample", string(eligible[j].Key()))
	})
	if len(eligible) > max {
		eligible = eligible[:max]
	}
	return eligible
}

// Table3 regenerates the alias-sets overview: non-singleton set counts and
// covered addresses per protocol and source, with the cross-protocol union.
func (e *Env) Table3() *Table {
	t := &Table{
		ID:     "Table 3",
		Title:  "Alias Sets Overview (non-singleton sets, covered addrs)",
		Header: []string{"Family", "Source", "Active", "Censys", "Union"},
	}
	cellFor := func(ds *Dataset, p ident.Protocol, v4 bool) string {
		ns := ds.NonSingletonFamilySets(p, v4)
		return setsAndAddrs(len(ns), alias.CoveredAddrs(ns))
	}
	unionCell := func(ds *Dataset, v4 bool) string {
		ns := ds.MergedFamilyNonSingleton(v4)
		return setsAndAddrs(len(ns), alias.CoveredAddrs(ns))
	}
	for _, row := range []struct {
		p    ident.Protocol
		name string
	}{{ident.SSH, "SSH"}, {ident.BGP, "BGP"}, {ident.SNMP, "SNMPv3"}} {
		censys := "n.a"
		union := "n.a"
		if row.p != ident.SNMP {
			censys = cellFor(e.Censys, row.p, true)
			union = cellFor(e.Both, row.p, true)
		} else {
			union = cellFor(e.Active, row.p, true) // SNMP has one source
		}
		t.Rows = append(t.Rows, []string{"IPv4", row.name, cellFor(e.Active, row.p, true), censys, union})
	}
	t.Rows = append(t.Rows, []string{"IPv4", "Union", unionCell(e.Active, true), unionCell(e.Censys, true), unionCell(e.Both, true)})
	for _, row := range []struct {
		p    ident.Protocol
		name string
	}{{ident.SSH, "SSH"}, {ident.BGP, "BGP"}, {ident.SNMP, "SNMPv3"}} {
		t.Rows = append(t.Rows, []string{"IPv6", row.name, cellFor(e.Active, row.p, false), "n.a", "n.a"})
	}
	t.Rows = append(t.Rows, []string{"IPv6", "Union", unionCell(e.Active, false), "n.a", "n.a"})

	t.Notes = append(t.Notes, e.singleServiceNote(true), e.snmpExclusivityNote(true))
	return t
}

// singleServiceNote computes the paper's "97% of covered addresses respond
// to a single service" statistic.
func (e *Env) singleServiceNote(v4 bool) string {
	services := make(map[netip.Addr]int)
	mark := func(p ident.Protocol) {
		for _, a := range e.Both.Addrs(p, boolPtr(v4)) {
			services[a]++
		}
	}
	mark(ident.SSH)
	mark(ident.BGP)
	mark(ident.SNMP)
	single, multi := 0, 0
	for _, n := range services {
		if n == 1 {
			single++
		} else {
			multi++
		}
	}
	total := single + multi
	if total == 0 {
		return "no responsive addresses"
	}
	fam := "IPv4"
	if !v4 {
		fam = "IPv6"
	}
	return fmt.Sprintf("%s: %.0f%% of responsive addresses answer exactly one service (%d of %d)",
		fam, 100*float64(single)/float64(total), single, total)
}

// snmpExclusivityNote computes the share of union sets only SNMPv3 finds —
// the paper's headline "60% (more than double SNMPv3 alone) come from SSH or
// BGP".
func (e *Env) snmpExclusivityNote(v4 bool) string {
	ssh := e.Both.NonSingletonFamilySets(ident.SSH, v4)
	bgpSets := e.Both.NonSingletonFamilySets(ident.BGP, v4)
	snmp := e.Both.NonSingletonFamilySets(ident.SNMP, v4)
	merged := e.Both.MergedFamilyNonSingleton(v4)
	newProto := alias.AddrSet(append(append([]alias.Set(nil), ssh...), bgpSets...))
	onlySNMP := 0
	for _, s := range merged {
		hasNew := false
		for _, a := range s.Addrs {
			if newProto[a] {
				hasNew = true
				break
			}
		}
		if !hasNew {
			onlySNMP++
		}
	}
	if len(merged) == 0 {
		return "no union sets"
	}
	fam := "IPv4"
	if !v4 {
		fam = "IPv6"
	}
	pct := 100 * float64(onlySNMP) / float64(len(merged))
	return fmt.Sprintf("%s: %.0f%% of union sets identifiable only via SNMPv3; %.0f%% via SSH or BGP (×%.1f vs SNMPv3 alone)",
		fam, pct, 100-pct, float64(len(merged)-onlySNMP)/maxF(float64(len(snmp)), 1))
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func boolPtr(v bool) *bool { return &v }

// Table4 regenerates the dual-stack table: per protocol, the IPv4 and IPv6
// addresses covered by dual-stack sets and the set counts, plus the union.
func (e *Env) Table4() *Table {
	t := &Table{
		ID:     "Table 4",
		Title:  "Dual-Stack Sets",
		Header: []string{"Protocol", "IPv4 addr", "IPv6 addr", "Dual-Stack Sets"},
	}
	row := func(name string, ds []alias.Set) {
		v4, v6 := 0, 0
		for _, s := range ds {
			v4 += s.V4Count()
			v6 += s.V6Count()
		}
		t.Rows = append(t.Rows, []string{name, count(v4), count(v6), count(len(ds))})
	}
	row("SSH", alias.DualStack(e.Both.NonSingletonSets(ident.SSH)))
	row("BGP", alias.DualStack(e.Both.NonSingletonSets(ident.BGP)))
	row("SNMPv3", alias.DualStack(e.Both.NonSingletonSets(ident.SNMP)))
	row("Union", e.DualStackSets())

	// The paper's set-size remark: 88% of dual-stack sets pair exactly one
	// IPv4 with one IPv6 address.
	ds := e.DualStackSets()
	pairs := 0
	for _, s := range ds {
		if s.Size() == 2 {
			pairs++
		}
	}
	if len(ds) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%.0f%% of union dual-stack sets contain exactly one IPv4 and one IPv6 address",
			100*float64(pairs)/float64(len(ds))))
		v6WithV4 := 0
		for _, s := range ds {
			v6WithV4 += s.V6Count()
		}
		all6 := len(e.Both.AllAddrs(V6))
		if all6 > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%.0f%% of known IPv6 addresses have an IPv4 counterpart",
				100*float64(v6WithV4)/float64(all6)))
		}
	}
	return t
}

// Table5 regenerates the top-10 ASes for IPv4 alias sets, per protocol and
// for the union.
func (e *Env) Table5() *Table {
	m := e.mapper()
	t := &Table{
		ID:     "Table 5",
		Title:  "Top 10 ASes for IPv4 alias sets (ASN (sets))",
		Header: []string{"Rank", "SSH", "BGP", "SNMPv3", "Union"},
	}
	top := func(ns []alias.Set) []asview.ASCount {
		return asview.Top(asview.SetsPerAS(m, ns), 10)
	}
	ssh := top(e.Both.NonSingletonFamilySets(ident.SSH, true))
	bgpT := top(e.Both.NonSingletonFamilySets(ident.BGP, true))
	snmp := top(e.Active.NonSingletonFamilySets(ident.SNMP, true))
	union := top(e.UnionFamilyNonSingleton(true))
	cell := func(list []asview.ASCount, i int) string {
		if i >= len(list) {
			return "-"
		}
		return fmt.Sprintf("%d (%s)", list[i].ASN, count(list[i].Sets))
	}
	for i := 0; i < 10; i++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i + 1), cell(ssh, i), cell(bgpT, i), cell(snmp, i), cell(union, i),
		})
	}
	return t
}

// Table6 regenerates the top-10 ASes for IPv6 alias sets and for dual-stack
// sets (union of all protocols).
func (e *Env) Table6() *Table {
	m := e.mapper()
	t := &Table{
		ID:     "Table 6",
		Title:  "Top 10 ASes for IPv6 alias and dual-stack sets (ASN (sets))",
		Header: []string{"Rank", "IPv6", "Dual-stack"},
	}
	v6Union := e.Active.MergedFamilyNonSingleton(false)
	v6Top := asview.Top(asview.SetsPerAS(m, v6Union), 10)
	dsUnion := e.DualStackSets()
	dsTop := asview.Top(asview.SetsPerAS(m, dsUnion), 10)
	cell := func(list []asview.ASCount, i int) string {
		if i >= len(list) {
			return "-"
		}
		return fmt.Sprintf("%d (%s)", list[i].ASN, count(list[i].Sets))
	}
	for i := 0; i < 10; i++ {
		t.Rows = append(t.Rows, []string{fmt.Sprint(i + 1), cell(v6Top, i), cell(dsTop, i)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("IPv6 alias sets spread over %d ASes; dual-stack sets over %d ASes",
			len(asview.SetsPerAS(m, v6Union)), len(asview.SetsPerAS(m, dsUnion))))
	return t
}
