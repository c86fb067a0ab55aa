package scenario

import (
	"math"
	"net/netip"
	"reflect"
	"testing"
)

// longOpts is the tiny-world longitudinal configuration shared by tests.
var longOpts = LongitudinalOptions{Options: Options{Scale: 0.05}, Epochs: 3}

// longCache shares longitudinal runs across tests (they cost several
// single-scenario runs each).
var longCache = map[string]*LongitudinalResult{}

func longTiny(t *testing.T, name string) *LongitudinalResult {
	t.Helper()
	if r, ok := longCache[name]; ok {
		return r
	}
	r, err := RunLongitudinal(name, longOpts)
	if err != nil {
		t.Fatalf("longitudinal %s: %v", name, err)
	}
	longCache[name] = r
	return r
}

func TestRunLongitudinalShape(t *testing.T) {
	r := longTiny(t, "baseline")
	if len(r.Epochs) != 3 {
		t.Fatalf("got %d epochs, want 3", len(r.Epochs))
	}
	for i, e := range r.Epochs {
		if e.Epoch != i {
			t.Fatalf("epoch %d labelled %d", i, e.Epoch)
		}
		if len(e.Protocols) != 3 {
			t.Fatalf("epoch %d has %d protocol scores, want 3", i, len(e.Protocols))
		}
		for _, p := range e.Protocols {
			if p.Precision < 0 || p.Precision > 1 || p.Recall < 0 || p.Recall > 1 {
				t.Fatalf("epoch %d %s scores out of range: %+v", i, p.Protocol, p)
			}
			if p.TruthAddrs == 0 {
				t.Fatalf("epoch %d %s scored against empty truth", i, p.Protocol)
			}
		}
	}
	if r.Epochs[0].Renumbered != 0 || r.Epochs[0].Rebooted != 0 {
		t.Fatalf("epoch 0 must see no boundary churn: %+v", r.Epochs[0])
	}
	if len(r.Persistence) != 3 {
		t.Fatalf("got %d persistence entries, want 3", len(r.Persistence))
	}
	for _, pp := range r.Persistence {
		if len(pp.Rates) != len(r.Epochs)-1 {
			t.Fatalf("%s has %d transition rates, want %d", pp.Protocol, len(pp.Rates), len(r.Epochs)-1)
		}
		if pp.Mean < 0 || pp.Mean > 1 {
			t.Fatalf("%s mean persistence out of range: %v", pp.Protocol, pp.Mean)
		}
	}
	if len(r.Survival) != len(r.Epochs) {
		t.Fatalf("got %d survival points, want %d", len(r.Survival), len(r.Epochs))
	}
	if r.Survival[0].Rate != 1.0 {
		t.Fatalf("epoch-0 survival %v, want 1.0", r.Survival[0].Rate)
	}
	if r.BaselineSets == 0 {
		t.Fatal("no epoch-0 sets to track")
	}
	if len(r.Merges) != 3 {
		t.Fatalf("got %d merge strategies, want 3", len(r.Merges))
	}
	for i, want := range []string{"naive-union", "decay-weighted", "incremental"} {
		if r.Merges[i].Strategy != want {
			t.Fatalf("merge strategy %d is %q, want %q", i, r.Merges[i].Strategy, want)
		}
	}
}

func TestRunLongitudinalDeterministic(t *testing.T) {
	a, err := RunLongitudinal("churn-storm", longOpts)
	if err != nil {
		t.Fatal(err)
	}
	setGOMAXPROCS(t, 1)
	b, err := RunLongitudinal("churn-storm", longOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("longitudinal results differ between the default GOMAXPROCS and 1")
	}
	longCache["churn-storm"] = a
}

// TestChurnStormDegradesPersistenceAndSurvival pins the longitudinal failure
// mode: a churn storm must break identifier persistence and kill epoch-0
// alias sets faster than the calm baseline.
func TestChurnStormDegradesPersistenceAndSurvival(t *testing.T) {
	base, storm := longTiny(t, "baseline"), longTiny(t, "churn-storm")
	if got, want := storm.Persistence[0].Mean, base.Persistence[0].Mean; got >= want {
		t.Errorf("churn-storm SSH persistence %.4f, baseline %.4f — expected a drop", got, want)
	}
	last := len(storm.Survival) - 1
	if got, want := storm.Survival[last].Rate, base.Survival[last].Rate; got >= want {
		t.Errorf("churn-storm final survival %.4f, baseline %.4f — expected a drop", got, want)
	}
}

// TestDecayWeightedBeatsNaiveUnionOnChurnStorm is the acceptance criterion:
// the decay-weighted identifier history must measurably out-score a naive
// cumulative union on precision under heavy churn, without losing recall.
func TestDecayWeightedBeatsNaiveUnionOnChurnStorm(t *testing.T) {
	r := longTiny(t, "churn-storm")
	var naive, decayed *MergeScore
	for _, m := range r.Merges {
		switch m.Strategy {
		case "naive-union":
			naive = m
		case "decay-weighted":
			decayed = m
		}
	}
	if naive == nil || decayed == nil {
		t.Fatalf("missing merge strategies: %+v", r.Merges)
	}
	if decayed.Precision <= naive.Precision {
		t.Fatalf("decay-weighted precision %.4f did not beat naive union %.4f",
			decayed.Precision, naive.Precision)
	}
	if decayed.FalsePairs >= naive.FalsePairs {
		t.Fatalf("decay-weighted false pairs %d not below naive union %d",
			decayed.FalsePairs, naive.FalsePairs)
	}
	if decayed.F1 <= naive.F1 {
		t.Fatalf("decay-weighted F1 %.4f did not beat naive union %.4f",
			decayed.F1, naive.F1)
	}
}

// TestIncrementalMatchesDecayAtHalf cross-validates the two stale-resistant
// strategies: at the default decay factor 0.5, the freshest observation's
// weight (1) strictly exceeds any older digest's accumulated history
// (< 0.5^(k-1) summed), so the decay-weighted history and the incremental
// last-write-wins map must resolve every address identically — identical
// partitions, identical scores.
func TestIncrementalMatchesDecayAtHalf(t *testing.T) {
	r := longTiny(t, "churn-storm")
	var decayed, incr *MergeScore
	for _, m := range r.Merges {
		switch m.Strategy {
		case "decay-weighted":
			decayed = m
		case "incremental":
			incr = m
		}
	}
	if decayed == nil || incr == nil {
		t.Fatalf("missing merge strategies: %+v", r.Merges)
	}
	a, b := *decayed, *incr
	a.Strategy, b.Strategy = "", ""
	if a != b {
		t.Fatalf("incremental %+v diverges from decay-weighted %+v at decay 0.5", *incr, *decayed)
	}
	if incr.FalsePairs >= r.Merges[0].FalsePairs {
		t.Fatalf("incremental false pairs %d not below naive union %d",
			incr.FalsePairs, r.Merges[0].FalsePairs)
	}
}

// TestIncrementalLatestWins: a fresh observation of an address with a new
// identifier moves the address — the stale claim is gone from the
// incremental strategy's output, while the address's old peers stay grouped.
func TestIncrementalLatestWins(t *testing.T) {
	a1 := netip.MustParseAddr("10.0.0.1")
	a2 := netip.MustParseAddr("10.0.0.2")
	a3 := netip.MustParseAddr("10.0.0.3")
	epoch := func(ssh map[netip.Addr]string) *epochView {
		return &epochView{ids: [3]map[netip.Addr]string{ssh, {}, {}}}
	}
	views := []*epochView{
		epoch(map[netip.Addr]string{a1: "aaa", a2: "aaa", a3: "aaa"}),
		epoch(map[netip.Addr]string{a1: "bbb"}), // a1 renumbered
	}
	sets := incremental(views)
	if len(sets) != 1 || sets[0].Signature() != "10.0.0.2,10.0.0.3" {
		t.Fatalf("incremental = %v, want the single set 10.0.0.2,10.0.0.3", sets)
	}
}

func TestRunLongitudinalValidation(t *testing.T) {
	if _, err := RunLongitudinal("no-such-world", longOpts); err == nil {
		t.Fatal("unknown preset accepted")
	}
	bad := longOpts
	bad.Epochs = 1
	if _, err := RunLongitudinal("baseline", bad); err == nil {
		t.Fatal("single-epoch longitudinal run accepted")
	}
	for _, decay := range []float64{1.5, math.NaN()} {
		bad = longOpts
		bad.Decay = decay
		if _, err := RunLongitudinal("baseline", bad); err == nil {
			t.Errorf("decay %v accepted", decay)
		}
	}
}

// TestReportMergeWithLongitudinal checks the extended SCENARIOS.json stays
// mergeable and canonical with longitudinal entries present.
func TestReportMergeWithLongitudinal(t *testing.T) {
	snap := tiny(t, "baseline")
	long := longTiny(t, "churn-storm")
	longBase := longTiny(t, "baseline")
	merged := Merge(
		&Report{Longitudinal: []*LongitudinalResult{long}},
		&Report{Scenarios: []*Result{snap}, Longitudinal: []*LongitudinalResult{longBase}},
	)
	if len(merged.Scenarios) != 1 || len(merged.Longitudinal) != 2 {
		t.Fatalf("merge lost entries: %d scenarios, %d longitudinal",
			len(merged.Scenarios), len(merged.Longitudinal))
	}
	if merged.Longitudinal[0].Scenario != "baseline" {
		t.Fatalf("longitudinal entries not in canonical order: %s first",
			merged.Longitudinal[0].Scenario)
	}
	data, err := merged.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Longitudinal) != 2 || len(back.Longitudinal[1].Epochs) != len(long.Epochs) {
		t.Fatalf("round trip lost longitudinal detail: %+v", back.Longitudinal)
	}
	data2, err := back.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("extended report marshalling not canonical")
	}
}
