package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/resolver"
)

// tinyOpts keeps test worlds small enough for the full catalog to run in a
// few seconds.
var tinyOpts = Options{Scale: 0.05}

// runCached builds each scenario at the tiny scale once and shares the
// result across tests.
var cache = map[string]*Result{}

func tiny(t *testing.T, name string) *Result {
	t.Helper()
	if r, ok := cache[name]; ok {
		return r
	}
	r, err := Run(name, tinyOpts)
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	cache[name] = r
	return r
}

func TestCatalogShape(t *testing.T) {
	ps := Presets()
	if len(ps) < 8 {
		t.Fatalf("catalog has %d presets, want >= 8", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || p.Summary == "" {
			t.Fatalf("preset %+v missing name or summary", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate preset name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Scale <= 0 || p.QuickScale <= 0 {
			t.Fatalf("preset %s has non-positive scales", p.Name)
		}
		if _, ok := Lookup(p.Name); !ok {
			t.Fatalf("Lookup(%q) failed", p.Name)
		}
	}
	if _, ok := Lookup("no-such-world"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

func TestRunUnknownScenario(t *testing.T) {
	if _, err := Run("no-such-world", tinyOpts); err == nil {
		t.Fatal("Run accepted an unknown scenario")
	}
}

// TestEntryPointsRefuseBadScale: a negative, NaN or infinite scale is
// refused by every entry point before a world is built, rather than taken
// for 0 (the preset's own scale) or passed on to the world build.
func TestEntryPointsRefuseBadScale(t *testing.T) {
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
		opts := Options{Scale: scale, Quick: true}
		if _, err := Run("baseline", opts); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("Run at scale %v: got %v, want a scale error", scale, err)
		}
		_, err := RunLongitudinal("baseline", LongitudinalOptions{Options: opts, Epochs: 2})
		if err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("RunLongitudinal at scale %v: got %v, want a scale error", scale, err)
		}
		_, err = RunSweep("loss", "baseline", []float64{0.05}, opts)
		if err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("RunSweep at scale %v: got %v, want a scale error", scale, err)
		}
	}
}

// firstDivergence names the first partition whose digest differs between
// two breakdowns, so a failing comparison says where the results part. It
// returns "" when the breakdowns agree or differ in length.
func firstDivergence(a, b []PartitionDigest) string {
	if len(a) != len(b) {
		return ""
	}
	for i := range a {
		if a[i].Partition == b[i].Partition && a[i].Digest != b[i].Digest {
			return a[i].Partition
		}
	}
	return ""
}

// TestDigestPartitionsBreakdown: the combined digest is a function of the
// per-partition digests, every partition is keyed, and firstDivergence names
// the partition that changed.
func TestDigestPartitionsBreakdown(t *testing.T) {
	res := tiny(t, "baseline")
	if res.SetsDigest == "" {
		t.Fatal("no sets digest")
	}
	wantParts := []string{"ssh", "bgp", "snmpv3", "union-v4", "union-v6", "dualstack"}
	if len(res.PartitionDigests) != len(wantParts) {
		t.Fatalf("got %d partition digests, want %d", len(res.PartitionDigests), len(wantParts))
	}
	for i, pd := range res.PartitionDigests {
		if pd.Partition != wantParts[i] {
			t.Errorf("partition %d is %q, want %q", i, pd.Partition, wantParts[i])
		}
		if len(pd.Digest) != 64 {
			t.Errorf("partition %s digest %q is not a sha256 hex string", pd.Partition, pd.Digest)
		}
	}
	if got := firstDivergence(res.PartitionDigests, res.PartitionDigests); got != "" {
		t.Fatalf("firstDivergence on identical breakdowns = %q, want empty", got)
	}
	mutated := append([]PartitionDigest(nil), res.PartitionDigests...)
	mutated[3].Digest = "deadbeef"
	if got := firstDivergence(res.PartitionDigests, mutated); got != "union-v4" {
		t.Fatalf("firstDivergence = %q, want union-v4", got)
	}
}

// TestSessionPartitionsMatchScored: an open session fed a sealed
// environment's scored observations — SSH and BGP from both campaigns,
// SNMPv3 from the active scan, each in reverse collection order — yields
// the same partitions, partition for partition, as the sealed views.
func TestSessionPartitionsMatchScored(t *testing.T) {
	p, _ := Lookup("baseline")
	cfg, _ := resolveConfig(p, tinyOpts)
	env, err := experiments.BuildEnv(envOptions(p, cfg, tinyOpts))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	s := resolver.NewSession()
	for _, proto := range scoreProtos {
		ds := env.Both
		if proto == ident.SNMP {
			ds = env.Active
		}
		obs := ds.Obs[proto]
		for i := len(obs) - 1; i >= 0; i-- {
			s.Observe(obs[i])
		}
	}
	want, wantParts := DigestPartitions(ScoredPartitions(env))
	got, gotParts := DigestPartitions(SessionPartitions(s))
	if got != want {
		t.Fatalf("session digest %s != sealed %s (first divergence: %s)",
			got, want, firstDivergence(wantParts, gotParts))
	}
	if !reflect.DeepEqual(gotParts, wantParts) {
		t.Fatalf("partition breakdowns differ:\n%v\n%v", gotParts, wantParts)
	}
	for i, p := range wantParts {
		if p.Partition != PartitionNames[i] {
			t.Errorf("partition %d is %q, want %q", i, p.Partition, PartitionNames[i])
		}
	}
	for i, proto := range scoreProtos {
		if PartitionNames[i] != strings.ToLower(proto.String()) {
			t.Errorf("PartitionNames[%d] = %q, want protocol %s", i, PartitionNames[i], proto)
		}
	}
	if _, ok := NewSessionView(s).Partition("union"); ok {
		t.Error("SessionView served an unknown partition name")
	}
}

// TestWorldScaleIsConfigScale: Preset.WorldScale, which the daemon checks
// against its scale cap, is the scale resolveConfig builds the world at, for
// every preset with an explicit scale, the quick variant and the full one.
func TestWorldScaleIsConfigScale(t *testing.T) {
	for _, p := range Presets() {
		for _, opts := range []Options{{Scale: 0.03}, {Scale: 0.03, Quick: true}, {Quick: true}, {}} {
			cfg, _ := resolveConfig(p, opts)
			if got := p.WorldScale(opts); got != cfg.Scale {
				t.Errorf("%s %+v: WorldScale %v, world built at %v", p.Name, opts, got, cfg.Scale)
			}
		}
	}
	if p, _ := Lookup("megascale-x10"); p.WorldScale(Options{}) != 10 || p.WorldScale(Options{Quick: true}) != 0.5 {
		t.Errorf("megascale-x10 scales %v and %v, want 10 and 0.5",
			p.WorldScale(Options{}), p.WorldScale(Options{Quick: true}))
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run("lossy", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("lossy", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n%+v\n%+v", a, b)
	}
}

func TestResultShape(t *testing.T) {
	r := tiny(t, "baseline")
	if len(r.Protocols) != 3 {
		t.Fatalf("got %d protocol scores, want 3", len(r.Protocols))
	}
	for _, p := range r.Protocols {
		if p.Precision < 0 || p.Precision > 1 || p.Recall < 0 || p.Recall > 1 {
			t.Fatalf("%s scores out of range: %+v", p.Protocol, p)
		}
		if p.Coverage <= 0 {
			t.Fatalf("%s coverage %v, want > 0", p.Protocol, p.Coverage)
		}
		if p.TruthAddrs == 0 {
			t.Fatalf("%s has empty ground truth", p.Protocol)
		}
	}
	if r.Devices == 0 || r.V4Addresses == 0 {
		t.Fatalf("empty world: %+v", r)
	}
}

// find returns the named protocol's score.
func find(t *testing.T, r *Result, proto string) ProtocolScore {
	t.Helper()
	for _, p := range r.Protocols {
		if p.Protocol == proto {
			return p
		}
	}
	t.Fatalf("result %s has no protocol %q", r.Scenario, proto)
	return ProtocolScore{}
}

func TestLossyAndRatelimitedReduceCoverage(t *testing.T) {
	base := tiny(t, "baseline")
	for _, name := range []string{"lossy", "ratelimited"} {
		r := tiny(t, name)
		worse := 0
		for _, proto := range []string{"SSH", "BGP", "SNMPv3"} {
			if find(t, r, proto).Coverage < find(t, base, proto).Coverage {
				worse++
			}
		}
		if worse == 0 {
			t.Errorf("%s did not reduce coverage for any protocol", name)
		}
	}
}

func TestKeyfarmReducesSSHPrecision(t *testing.T) {
	base := find(t, tiny(t, "baseline"), "SSH")
	farm := find(t, tiny(t, "ssh-keyfarm"), "SSH")
	if farm.Precision >= base.Precision {
		t.Fatalf("keyfarm SSH precision %v, baseline %v — expected a drop",
			farm.Precision, base.Precision)
	}
	if farm.FalsePairs <= base.FalsePairs {
		t.Fatalf("keyfarm false pairs %d, baseline %d — expected more",
			farm.FalsePairs, base.FalsePairs)
	}
}

func TestSNMPDarkShrinksSNMP(t *testing.T) {
	base := find(t, tiny(t, "baseline"), "SNMPv3")
	dark := find(t, tiny(t, "snmp-dark"), "SNMPv3")
	if dark.TruthAddrs >= base.TruthAddrs {
		t.Fatalf("snmp-dark truth %d, baseline %d — expected fewer agents",
			dark.TruthAddrs, base.TruthAddrs)
	}
	if dark.ObservedAddrs >= base.ObservedAddrs {
		t.Fatalf("snmp-dark observed %d, baseline %d — expected fewer",
			dark.ObservedAddrs, base.ObservedAddrs)
	}
}

func TestIPIDNoisyDegradesMIDAR(t *testing.T) {
	base := tiny(t, "baseline")
	noisy := tiny(t, "ipid-noisy")
	// Per-interface counters make MIDAR either refuse sets or wrongly split
	// them; confirmed-as-a-share must not improve, and false splits appear.
	if noisy.MIDAR.Split <= base.MIDAR.Split && noisy.MIDAR.Confirmed >= base.MIDAR.Confirmed {
		t.Fatalf("ipid-noisy left MIDAR intact: baseline %+v, noisy %+v",
			base.MIDAR, noisy.MIDAR)
	}
	// The identifier techniques don't care about IPID policy at all.
	if got, want := find(t, noisy, "SSH"), find(t, base, "SSH"); got != want {
		t.Fatalf("ipid-noisy perturbed SSH scores: %+v vs %+v", got, want)
	}
}

func TestReportMergeAndRoundTrip(t *testing.T) {
	a := tiny(t, "baseline")
	b := tiny(t, "lossy")
	merged := Merge(&Report{Scenarios: []*Result{b}}, &Report{Scenarios: []*Result{a}})
	if len(merged.Scenarios) != 2 || merged.Scenarios[0].Scenario != "baseline" {
		t.Fatalf("merge lost canonical order: %+v", merged.Scenarios)
	}
	data, err := merged.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Scenarios) != 2 {
		t.Fatalf("round trip lost scenarios: %d", len(back.Scenarios))
	}
	if !reflect.DeepEqual(back.Scenarios[0], merged.Scenarios[0]) {
		t.Fatal("round trip changed a result")
	}
	data2, err := back.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("report marshalling not canonical")
	}
}
