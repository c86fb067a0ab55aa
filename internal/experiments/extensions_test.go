package experiments

import (
	"strings"
	"testing"
	"time"

	"aliaslimit/internal/ident"
	"aliaslimit/internal/speedtrap"
	"aliaslimit/internal/topo"
)

func extWorld(t *testing.T) *topo.World {
	t.Helper()
	cfg := topo.Default()
	cfg.Scale = 0.06
	cfg.Seed = 17
	w, err := topo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMultiVantageCumulative(t *testing.T) {
	w := extWorld(t)
	rows, err := MultiVantage(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Vantages != i+1 {
			t.Errorf("row %d vantages = %d", i, r.Vantages)
		}
		if i > 0 {
			if r.IPs < rows[i-1].IPs {
				t.Errorf("coverage shrank at vantage %d", r.Vantages)
			}
			if r.IPs != rows[i-1].IPs+r.NewIPs {
				t.Errorf("marginal accounting broken at vantage %d", r.Vantages)
			}
			// Diminishing returns: later vantages add less than the first
			// found.
			if r.NewIPs >= rows[0].IPs {
				t.Errorf("vantage %d added %d, at least first vantage's %d",
					r.Vantages, r.NewIPs, rows[0].IPs)
			}
		}
	}
	if rows[len(rows)-1].IPs <= rows[0].IPs {
		t.Error("additional vantage points found nothing new — filtering model broken")
	}
	out := RenderMultiVantage(rows)
	if !strings.Contains(out, "Extension A") || !strings.Contains(out, "Vantages") {
		t.Errorf("render:\n%s", out)
	}
}

func TestMultiVantageCapped(t *testing.T) {
	w := extWorld(t)
	rows, err := MultiVantage(w, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != topo.AuxVantages {
		t.Errorf("rows = %d, want cap %d", len(rows), topo.AuxVantages)
	}
}

func TestStability(t *testing.T) {
	w := extWorld(t)
	res, err := Stability(w, 21*24*time.Hour, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Persisted == 0 {
		t.Fatal("no identifiers persisted — world broken")
	}
	if res.Changed == 0 {
		t.Error("10% churn should change some identifiers")
	}
	rate := res.PersistenceRate()
	if rate < 0.80 || rate >= 1.0 {
		t.Errorf("persistence rate = %.2f (persisted=%d changed=%d gone=%d new=%d)",
			rate, res.Persisted, res.Changed, res.Gone, res.New)
	}
	if res.Gap != 21*24*time.Hour {
		t.Error("gap not recorded")
	}
}

func TestStabilityZeroChurnIsPerfect(t *testing.T) {
	w := extWorld(t)
	res, err := Stability(w, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed != 0 {
		t.Errorf("no churn but %d identifiers changed", res.Changed)
	}
	if r := res.PersistenceRate(); r != 1.0 {
		t.Errorf("persistence = %.3f, want 1.0 (gone=%d)", r, res.Gone)
	}
}

func TestCompareBaselines(t *testing.T) {
	e := testEnv(t)
	rows := e.CompareBaselines()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]BaselineComparison{}
	for _, r := range rows {
		byName[r.Technique] = r
	}
	iff := byName["iffinder (common source addr)"]
	ssh := byName["SSH identifier"]
	snmp := byName["SNMPv3 identifier"]
	if iff.Sets == 0 {
		t.Error("iffinder found nothing — ICMP model broken")
	}
	// The paper's motivation: the classical technique is far outyielded by
	// the protocol-centric identifiers.
	if iff.Sets >= ssh.Sets {
		t.Errorf("iffinder (%d sets) should trail SSH (%d sets)", iff.Sets, ssh.Sets)
	}
	if iff.Sets >= snmp.Sets {
		t.Errorf("iffinder (%d sets) should trail SNMPv3 (%d sets)", iff.Sets, snmp.Sets)
	}
	out := RenderBaselines(rows)
	if !strings.Contains(out, "iffinder") {
		t.Errorf("render:\n%s", out)
	}
}

func TestBrokenSSHServersAreSurvived(t *testing.T) {
	cfg := topo.Default()
	cfg.Scale = 0.06
	cfg.Seed = 19
	cfg.PBrokenSSH = 0.25 // heavy failure injection
	w, err := topo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := CollectActive(w, ScanOptions{})
	if err != nil {
		t.Fatalf("scan over broken servers errored: %v", err)
	}
	// Broken servers must not produce identifiers; healthy ones must.
	if len(ds.Obs) == 0 || len(ds.Addrs(ident.SSH, V4)) == 0 {
		t.Error("no SSH observations survived failure injection")
	}
	truthCount := 0
	for _, addrs := range w.Truth.SSHAddrs {
		for _, a := range addrs {
			if a.Is4() {
				truthCount++
			}
		}
	}
	got := len(ds.Addrs(ident.SSH, V4))
	if got > truthCount {
		t.Errorf("scan found %d SSH addrs but ground truth has only %d — broken servers leaked identifiers",
			got, truthCount)
	}
}

func TestValidateWithSpeedtrap(t *testing.T) {
	e := testEnv(t)
	res := e.ValidateWithSpeedtrap(20, speedtrap.Config{})
	if res.Sampled == 0 {
		t.Skip("no IPv6 SSH sets at this scale")
	}
	if res.Unverifiable+res.Confirmed+res.Split != res.Sampled {
		t.Errorf("tally does not add up: %+v", res)
	}
	// Fragment emission is rare: most sets must be unverifiable, and
	// confirmed sets must never be outnumbered by wrong splits of true
	// aliases from shared counters.
	if res.Unverifiable == 0 {
		t.Errorf("every set verifiable — fragment scarcity model broken: %+v", res)
	}
}

func TestComparePTRDualStack(t *testing.T) {
	e := testEnv(t)
	r := e.ComparePTRDualStack()
	if r.IdentifierSets == 0 {
		t.Fatal("no identifier dual-stack sets")
	}
	// The DNS technique must find something, but far less than the
	// identifier approach, and mostly consistent with it.
	if r.PTRSets == 0 {
		t.Error("PTR inference found nothing")
	}
	if r.PTRSets >= r.IdentifierSets {
		t.Errorf("PTR sets (%d) should trail identifier sets (%d)", r.PTRSets, r.IdentifierSets)
	}
	if r.Confirmed+r.Contradicted+r.Uncovered != r.PTRSets {
		t.Errorf("classification does not add up: %+v", r)
	}
	out := RenderPTRComparison(r)
	if !strings.Contains(out, "Extension D") {
		t.Errorf("render:\n%s", out)
	}
}

func TestEvaluateAccuracy(t *testing.T) {
	e := testEnv(t)
	rows := e.EvaluateAccuracy()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Precision < 0.95 {
			t.Errorf("%s precision = %.3f — the technique should rarely merge wrongly", r.Protocol, r.Precision)
		}
		if r.Recall < 0.80 {
			t.Errorf("%s recall = %.3f — ACLs alone should not cost this much", r.Protocol, r.Recall)
		}
		if r.F1 <= 0 || r.F1 > 1 {
			t.Errorf("%s F1 = %.3f", r.Protocol, r.F1)
		}
	}
	out := RenderAccuracy(rows)
	if !strings.Contains(out, "Extension E") || !strings.Contains(out, "Precision") {
		t.Errorf("render:\n%s", out)
	}
}
