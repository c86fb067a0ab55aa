package midar

import (
	"net/netip"
	"testing"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/netsim"
)

// world builds a fabric with devices of each IPID temperament.
func world(t *testing.T) (*netsim.Fabric, *netsim.SimClock) {
	t.Helper()
	clk := netsim.NewSimClock(time.Unix(50000, 0))
	f := netsim.New(clk)
	add := func(id string, model netsim.IPIDModel, velocity float64, addrs ...string) {
		var as []netip.Addr
		for _, s := range addrs {
			as = append(as, netip.MustParseAddr(s))
		}
		d, err := netsim.NewDevice(netsim.DeviceConfig{
			ID: id, Addrs: as, IPID: model, IPIDVelocity: velocity,
			IPIDSeed: 12345, Pingable: true,
		}, clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	// Two routers with shared monotonic counters (MIDAR's happy case).
	add("r-shared-1", netsim.IPIDSharedMonotonic, 40, "10.1.0.1", "10.1.0.2", "10.1.0.3")
	add("r-shared-2", netsim.IPIDSharedMonotonic, 25, "10.2.0.1", "10.2.0.2")
	// One per-interface router: self-monotonic, cross-interface inconsistent.
	add("r-perif", netsim.IPIDPerInterface, 0, "10.3.0.1", "10.3.0.2")
	// Random and zero devices.
	add("r-random", netsim.IPIDRandom, 0, "10.4.0.1", "10.4.0.2")
	add("r-zero", netsim.IPIDZero, 0, "10.5.0.1")
	// High-velocity shared counter.
	add("r-fast", netsim.IPIDHighVelocity, 200000, "10.6.0.1", "10.6.0.2")
	return f, clk
}

func mustAddrs(ss ...string) []netip.Addr {
	var out []netip.Addr
	for _, s := range ss {
		out = append(out, netip.MustParseAddr(s))
	}
	return out
}

func TestClassification(t *testing.T) {
	f, clk := world(t)
	s := NewSession(f.Vantage("midar"), clk, Config{})
	classes := s.ClassifyTargets(mustAddrs(
		"10.1.0.1", "10.3.0.1", "10.4.0.1", "10.5.0.1", "10.6.0.1", "10.99.0.1",
	))
	want := map[string]Class{
		"10.1.0.1":  ClassUsable,
		"10.3.0.1":  ClassUsable, // per-interface looks fine in isolation
		"10.4.0.1":  ClassTooFast,
		"10.5.0.1":  ClassConstant,
		"10.6.0.1":  ClassTooFast,
		"10.99.0.1": ClassUnresponsive,
	}
	for addr, wc := range want {
		if got := classes[netip.MustParseAddr(addr)]; got != wc {
			t.Errorf("%s classified %v, want %v", addr, got, wc)
		}
	}
}

func TestVerifyConfirmsTrueAliases(t *testing.T) {
	f, clk := world(t)
	s := NewSession(f.Vantage("midar"), clk, Config{})
	res := s.VerifySet(alias.NewSet(mustAddrs("10.1.0.1", "10.1.0.2", "10.1.0.3")...))
	if res.Outcome != OutcomeConfirmed {
		t.Errorf("true alias set: outcome = %v, partition = %v", res.Outcome, res.Partition)
	}
	if len(res.UsableAddrs) != 3 {
		t.Errorf("usable = %d, want 3", len(res.UsableAddrs))
	}
}

func TestVerifySplitsFalseAliases(t *testing.T) {
	f, clk := world(t)
	s := NewSession(f.Vantage("midar"), clk, Config{})
	// Addresses from two different routers grouped (wrongly) into one set.
	res := s.VerifySet(alias.NewSet(mustAddrs("10.1.0.1", "10.2.0.1")...))
	if res.Outcome != OutcomeSplit {
		t.Errorf("cross-device set: outcome = %v, want split", res.Outcome)
	}
}

func TestVerifySplitsPerInterfaceCounters(t *testing.T) {
	f, clk := world(t)
	s := NewSession(f.Vantage("midar"), clk, Config{})
	res := s.VerifySet(alias.NewSet(mustAddrs("10.3.0.1", "10.3.0.2")...))
	// Both usable in isolation, but the interleaved test must refuse to
	// merge independent counters (they are genuine aliases, but MIDAR
	// cannot see that — a known false-negative mode of the technique).
	if res.Outcome != OutcomeSplit {
		t.Errorf("per-interface set: outcome = %v, want split", res.Outcome)
	}
}

func TestVerifyUnverifiable(t *testing.T) {
	f, clk := world(t)
	s := NewSession(f.Vantage("midar"), clk, Config{})
	for _, set := range []alias.Set{
		alias.NewSet(mustAddrs("10.4.0.1", "10.4.0.2")...), // random IPIDs
		alias.NewSet(mustAddrs("10.6.0.1", "10.6.0.2")...), // too fast
		alias.NewSet(mustAddrs("10.5.0.1", "10.1.0.1")...), // constant + one usable
	} {
		res := s.VerifySet(set)
		if res.Outcome != OutcomeUnverifiable {
			t.Errorf("set %v: outcome = %v, want unverifiable", set.Addrs, res.Outcome)
		}
	}
}

func TestVerifySetsTally(t *testing.T) {
	f, clk := world(t)
	s := NewSession(f.Vantage("midar"), clk, Config{})
	candidates := []alias.Set{
		alias.NewSet(mustAddrs("10.1.0.1", "10.1.0.2", "10.1.0.3")...), // confirmed
		alias.NewSet(mustAddrs("10.2.0.1", "10.2.0.2")...),             // confirmed
		alias.NewSet(mustAddrs("10.1.0.1", "10.2.0.1")...),             // split
		alias.NewSet(mustAddrs("10.4.0.1", "10.4.0.2")...),             // unverifiable
	}
	results, tally := s.VerifySets(candidates)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	if tally.Confirmed != 2 || tally.Split != 1 || tally.Unverifiable != 1 {
		t.Errorf("tally = %+v", tally)
	}
	if tally.Verifiable() != 3 {
		t.Errorf("verifiable = %d", tally.Verifiable())
	}
}

func TestVerifyAdvancesSimulatedTime(t *testing.T) {
	f, clk := world(t)
	start := clk.Now()
	s := NewSession(f.Vantage("midar"), clk, Config{Rounds: 10, Interval: time.Second})
	s.VerifySet(alias.NewSet(mustAddrs("10.1.0.1", "10.1.0.2")...))
	if clk.Now().Sub(start) < 10*time.Second {
		t.Error("probing should consume simulated time (the 3-week effect)")
	}
}

func TestUnwrapHandlesWrap(t *testing.T) {
	base := time.Unix(0, 0)
	s := Series{Samples: []Sample{
		{T: base, ID: 65530},
		{T: base.Add(time.Second), ID: 65534},
		{T: base.Add(2 * time.Second), ID: 3}, // wraps
		{T: base.Add(3 * time.Second), ID: 10},
	}}
	un := s.Unwrap()
	// 65530 → 65534 (+4) → wraps to 3 (+5) → 10 (+7).
	want := []uint64{65530, 65534, 65539, 65546}
	for i := range want {
		if un[i] != want[i] {
			t.Errorf("unwrap[%d] = %d, want %d", i, un[i], want[i])
		}
	}
	v, ok := s.Velocity()
	if !ok || v < 5.2 || v > 5.4 {
		t.Errorf("velocity = %v,%v, want 16/3", v, ok)
	}
}

func TestVelocityDegenerate(t *testing.T) {
	if _, ok := (Series{}).Velocity(); ok {
		t.Error("empty series has no velocity")
	}
	one := Series{Samples: []Sample{{T: time.Unix(0, 0), ID: 5}}}
	if _, ok := one.Velocity(); ok {
		t.Error("single sample has no velocity")
	}
	sameT := Series{Samples: []Sample{{T: time.Unix(0, 0), ID: 5}, {T: time.Unix(0, 0), ID: 6}}}
	if _, ok := sameT.Velocity(); ok {
		t.Error("zero-duration series has no velocity")
	}
}

func TestMBTRequiresInterleaving(t *testing.T) {
	base := time.Unix(0, 0)
	mk := func(start time.Time, ids ...uint16) Series {
		var s Series
		for i, id := range ids {
			s.Samples = append(s.Samples, Sample{T: start.Add(time.Duration(i) * 2 * time.Second), ID: id})
		}
		return s
	}
	// Perfectly shared counter, interleaved at odd seconds.
	a := mk(base, 100, 110, 120)
	b := Series{Samples: []Sample{
		{T: base.Add(1 * time.Second), ID: 105},
		{T: base.Add(3 * time.Second), ID: 115},
	}}
	if !MBT(a, b, 10, DefaultMargin) {
		t.Error("MBT rejected a consistent shared counter")
	}
	// Same series but b's counter offset wildly: inconsistent.
	bBad := Series{Samples: []Sample{
		{T: base.Add(1 * time.Second), ID: 40000},
		{T: base.Add(3 * time.Second), ID: 40010},
	}}
	if MBT(a, bBad, 10, DefaultMargin) {
		t.Error("MBT accepted divergent counters")
	}
	// Too few samples.
	if MBT(Series{}, b, 10, DefaultMargin) {
		t.Error("MBT accepted empty series")
	}
	if got := MBT(mk(base, 1, 2, 3), mk(base.Add(time.Hour), 4, 5, 6), 1000, DefaultMargin); got {
		// All of b after all of a with a huge gap: the bound scales with
		// dt, so this may pass numerically — but only via a genuine
		// cross-source step. Accept either verdict; the property checked
		// here is just that it does not panic.
		_ = got
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		ClassUnresponsive: "unresponsive",
		ClassConstant:     "constant",
		ClassTooFast:      "too-fast",
		ClassUsable:       "usable",
		Class(9):          "unknown",
	} {
		if c.String() != want {
			t.Errorf("Class(%d) = %q", c, c.String())
		}
	}
	for o, want := range map[SetOutcome]string{
		OutcomeUnverifiable: "unverifiable",
		OutcomeConfirmed:    "confirmed",
		OutcomeSplit:        "split",
		SetOutcome(9):       "unknown",
	} {
		if o.String() != want {
			t.Errorf("SetOutcome(%d) = %q", o, o.String())
		}
	}
}
