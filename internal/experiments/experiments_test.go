package experiments

import (
	"strings"
	"sync"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/topo"
)

// sharedEnv builds one small environment for all tests in this package;
// collection is the expensive part.
var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		cfg := topo.Default()
		cfg.Scale = 0.08
		cfg.Seed = 11
		envVal, envErr = BuildEnv(Options{Topo: cfg})
	})
	if envErr != nil {
		t.Fatalf("BuildEnv: %v", envErr)
	}
	return envVal
}

func TestDatasetsPopulated(t *testing.T) {
	e := testEnv(t)
	for _, p := range []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP} {
		if len(e.Active.Obs[p]) == 0 {
			t.Errorf("active %s observations empty", p)
		}
	}
	if len(e.Censys.Obs[ident.SSH]) == 0 || len(e.Censys.Obs[ident.BGP]) == 0 {
		t.Error("censys observations empty")
	}
	if len(e.Censys.Obs[ident.SNMP]) != 0 {
		t.Error("censys must not carry SNMPv3 data")
	}
	if got := len(e.Censys.Addrs(ident.SSH, V6)); got != 0 {
		t.Errorf("censys has %d IPv6 SSH addrs, want 0", got)
	}
	if len(e.Active.Addrs(ident.SSH, V6)) == 0 {
		t.Error("active scan found no IPv6 SSH")
	}
}

func TestCoverageShapes(t *testing.T) {
	e := testEnv(t)
	aSSH := len(e.Active.Addrs(ident.SSH, V4))
	cSSH := len(e.Censys.Addrs(ident.SSH, V4))
	uSSH := len(e.Both.Addrs(ident.SSH, V4))
	// Paper: Censys sees ~1.35x the active SSH population; union exceeds both.
	if cSSH <= aSSH {
		t.Errorf("censys SSH (%d) should exceed active SSH (%d)", cSSH, aSSH)
	}
	if uSSH <= cSSH || uSSH <= aSSH {
		t.Errorf("union SSH (%d) should exceed both sources (%d, %d)", uSSH, cSSH, aSSH)
	}
	ratio := float64(cSSH) / float64(aSSH)
	if ratio < 1.1 || ratio > 1.8 {
		t.Errorf("censys/active SSH ratio = %.2f, want ~1.35", ratio)
	}

	aBGP := len(e.Active.Addrs(ident.BGP, V4))
	uBGP := len(e.Both.Addrs(ident.BGP, V4))
	if aBGP == 0 || uBGP < aBGP {
		t.Errorf("BGP coverage degenerate: active=%d union=%d", aBGP, uBGP)
	}
	// SNMP and SSH populations are of the same order; BGP is tiny.
	aSNMP := len(e.Active.Addrs(ident.SNMP, V4))
	if aSNMP < aBGP*5 {
		t.Errorf("SNMP (%d) should dwarf BGP (%d)", aSNMP, aBGP)
	}
}

func TestInferenceMatchesGroundTruthSSH(t *testing.T) {
	e := testEnv(t)
	// Every SSH alias set inferred from the active scan must be a subset of
	// one device's true addresses — unless the device shares a fleet key.
	truthOwner := map[string]string{} // addr -> device
	for dev, addrs := range e.World.Truth.SSHAddrs {
		for _, a := range addrs {
			truthOwner[a.String()] = dev
		}
	}
	fleetDevices := map[string]bool{}
	for _, ids := range e.World.Truth.Fleets {
		for _, id := range ids {
			fleetDevices[id] = true
		}
	}
	churned := func(dev string) bool { return strings.Contains(dev, "-churn") }

	sets := alias.NonSingleton(e.Active.Sets(ident.SSH))
	if len(sets) == 0 {
		t.Fatal("no non-singleton SSH sets")
	}
	violations := 0
	for _, s := range sets {
		owners := map[string]bool{}
		for _, a := range s.Addrs {
			owners[truthOwner[a.String()]] = true
		}
		if len(owners) == 1 {
			continue
		}
		// Multi-owner sets must be explained by fleet keys or churn.
		explained := true
		for dev := range owners {
			if dev == "" || (!fleetDevices[dev] && !churned(dev)) {
				explained = false
			}
		}
		if !explained {
			violations++
			if violations <= 3 {
				t.Logf("unexplained merged set %v owners %v", s.Addrs, owners)
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d of %d SSH sets merge unrelated devices", violations, len(sets))
	}
}

func TestInferenceRecallSSH(t *testing.T) {
	e := testEnv(t)
	// Recall over devices fully visible to the active vantage: if a device
	// truly has >=2 SSH IPv4 addresses and the scan captured >=2 of them,
	// they must land in one set (same key + capabilities).
	addrToSet := map[string]int{}
	sets := alias.NonSingleton(alias.FilterFamily(e.Active.Sets(ident.SSH), true))
	for i, s := range sets {
		for _, a := range s.Addrs {
			addrToSet[a.String()] = i
		}
	}
	scanned := map[string]bool{}
	for _, o := range e.Active.Obs[ident.SSH] {
		scanned[o.Addr.String()] = true
	}
	splitDevices := 0
	checked := 0
	for dev, addrs := range e.World.Truth.SSHAddrs {
		var got []int
		for _, a := range addrs {
			if a.Is4() && scanned[a.String()] {
				if si, ok := addrToSet[a.String()]; ok {
					got = append(got, si)
				}
			}
		}
		if len(got) < 2 {
			continue
		}
		checked++
		first := got[0]
		same := true
		for _, si := range got[1:] {
			if si != first {
				same = false
			}
		}
		if !same {
			splitDevices++
			if splitDevices <= 3 {
				t.Logf("device %s split across sets", dev)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no multi-address devices visible to the scan")
	}
	// Per-interface capability variation (0.4%) legitimately splits a few.
	if frac := float64(splitDevices) / float64(checked); frac > 0.02 {
		t.Errorf("%.1f%% of devices split (%d of %d), want <2%%", 100*frac, splitDevices, checked)
	}
}

func TestTable3UnionDoublesSNMP(t *testing.T) {
	e := testEnv(t)
	ssh := e.Both.NonSingletonFamilySets(ident.SSH, true)
	bgpSets := e.Both.NonSingletonFamilySets(ident.BGP, true)
	snmp := e.Active.NonSingletonFamilySets(ident.SNMP, true)
	union := alias.Merge(ssh, bgpSets, snmp)
	if len(union) < 2*len(snmp) {
		t.Errorf("union sets (%d) should be at least double SNMPv3 alone (%d)",
			len(union), len(snmp))
	}
	if len(ssh) <= len(snmp) {
		t.Errorf("SSH sets (%d) should exceed SNMPv3 sets (%d)", len(ssh), len(snmp))
	}
	if len(bgpSets) >= len(snmp)/5 {
		t.Errorf("BGP sets (%d) should be far fewer than SNMPv3 (%d)", len(bgpSets), len(snmp))
	}
}

func TestDualStackDominatedBySSH(t *testing.T) {
	e := testEnv(t)
	sshDS := alias.DualStack(e.Both.Sets(ident.SSH))
	snmpDS := alias.DualStack(e.Both.Sets(ident.SNMP))
	if len(sshDS) < 10*len(snmpDS) {
		t.Errorf("SSH dual-stack (%d) should dwarf SNMPv3 dual-stack (%d) — the paper's 30x",
			len(sshDS), len(snmpDS))
	}
	pairs := 0
	for _, s := range sshDS {
		if s.Size() == 2 {
			pairs++
		}
	}
	if len(sshDS) > 0 && float64(pairs)/float64(len(sshDS)) < 0.7 {
		t.Errorf("only %d of %d SSH dual-stack sets are 1v4+1v6 pairs, want most", pairs, len(sshDS))
	}
}

func TestValidationAgreementHigh(t *testing.T) {
	e := testEnv(t)
	_, res := e.ValidatePair(ident.SSH, ident.SNMP)
	if res.Sample == 0 {
		t.Skip("no SSH-SNMP overlap at this scale")
	}
	if rate := res.AgreementRate(); rate < 0.85 {
		t.Errorf("SSH-SNMPv3 agreement = %.2f over %d sets, want >=0.85 (paper: 0.97)",
			rate, res.Sample)
	}
}

func TestTablesRender(t *testing.T) {
	e := testEnv(t)
	tables := []*Table{
		e.Table1(), e.Table3(), e.Table4(), e.Table5(), e.Table6(),
	}
	for _, tb := range tables {
		out := tb.Render()
		if !strings.Contains(out, tb.ID) {
			t.Errorf("%s render missing ID", tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s has no rows", tb.ID)
		}
	}
	for _, f := range []*Figure{e.Figure3(), e.Figure4(), e.Figure5(), e.Figure6()} {
		out := f.Render()
		if !strings.Contains(out, f.ID) || len(strings.Split(out, "\n")) < 5 {
			t.Errorf("%s render too small:\n%s", f.ID, out)
		}
	}
}

func TestFigure5BGPSpansMoreASes(t *testing.T) {
	e := testEnv(t)
	f := e.Figure5()
	var sshAt1, bgpAt1 float64
	var bgpN int
	for _, s := range f.Series {
		switch s.Name {
		case "SSH":
			sshAt1 = s.E.At(1)
		case "BGP":
			bgpAt1 = s.E.At(1)
			bgpN = s.E.N()
		}
	}
	if bgpN < 4 {
		t.Skipf("only %d BGP sets at this scale", bgpN)
	}
	// Paper: <10% of SSH sets span 2+ ASes; >35% of BGP sets do. So the
	// single-AS fraction must be much lower for BGP.
	if !(bgpAt1 < sshAt1) {
		t.Errorf("BGP single-AS fraction (%.2f) should be below SSH's (%.2f)", bgpAt1, sshAt1)
	}
	if sshAt1 < 0.8 {
		t.Errorf("SSH single-AS fraction = %.2f, want >0.8", sshAt1)
	}
}
