package speedtrap

import (
	"net/netip"
	"testing"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/netsim"
)

// v6World builds IPv6 devices of assorted temperaments.
func v6World(t *testing.T) (*netsim.Fabric, *netsim.SimClock) {
	t.Helper()
	clk := netsim.NewSimClock(time.Unix(70000, 0))
	f := netsim.New(clk)
	add := func(id string, model netsim.IPIDModel, vel float64, frag bool, addrs ...string) {
		var as []netip.Addr
		for _, s := range addrs {
			as = append(as, netip.MustParseAddr(s))
		}
		d, err := netsim.NewDevice(netsim.DeviceConfig{
			ID: id, Addrs: as, IPID: model, IPIDVelocity: vel,
			IPIDSeed: 777, Pingable: true, EmitsFragmentIDs: frag,
		}, clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	add("r1", netsim.IPIDSharedMonotonic, 30, true, "2a00:1::1", "2a00:1::2", "2a00:1::3")
	add("r2", netsim.IPIDSharedMonotonic, 55, true, "2a00:2::1", "2a00:2::2")
	add("r3", netsim.IPIDRandom, 0, true, "2a00:3::1", "2a00:3::2")
	add("r4", netsim.IPIDSharedMonotonic, 20, false, "2a00:4::1", "2a00:4::2") // atomic-only
	add("r5", netsim.IPIDZero, 0, true, "2a00:5::1")
	// A dual-stack device: the v4 address must never answer frag probes.
	add("r6", netsim.IPIDSharedMonotonic, 10, true, "10.6.0.1", "2a00:6::1")
	return f, clk
}

func addrs(ss ...string) []netip.Addr {
	var out []netip.Addr
	for _, s := range ss {
		out = append(out, netip.MustParseAddr(s))
	}
	return out
}

func TestFragProbeGating(t *testing.T) {
	f, _ := v6World(t)
	v := f.Vantage("st")
	if _, ok := v.FragIDProbe(netip.MustParseAddr("2a00:1::1")); !ok {
		t.Error("frag emitter did not answer")
	}
	if _, ok := v.FragIDProbe(netip.MustParseAddr("2a00:4::1")); ok {
		t.Error("non-emitter answered")
	}
	if _, ok := v.FragIDProbe(netip.MustParseAddr("10.6.0.1")); ok {
		t.Error("IPv4 address answered a Speedtrap probe")
	}
	if _, ok := v.FragIDProbe(netip.MustParseAddr("2a00:99::1")); ok {
		t.Error("unrouted address answered")
	}
}

func TestVerifyConfirmsSharedCounter(t *testing.T) {
	f, clk := v6World(t)
	s := NewSession(f.Vantage("st"), clk)
	res := s.VerifySet(alias.NewSet(addrs("2a00:1::1", "2a00:1::2", "2a00:1::3")...))
	if res.Outcome != OutcomeConfirmed {
		t.Errorf("outcome = %v, partition %v", res.Outcome, res.Partition)
	}
	if len(res.UsableAddrs) != 3 {
		t.Errorf("usable = %d", len(res.UsableAddrs))
	}
}

func TestVerifySplitsCrossDevice(t *testing.T) {
	f, clk := v6World(t)
	s := NewSession(f.Vantage("st"), clk)
	res := s.VerifySet(alias.NewSet(addrs("2a00:1::1", "2a00:2::1")...))
	if res.Outcome != OutcomeSplit {
		t.Errorf("cross-device outcome = %v", res.Outcome)
	}
}

func TestVerifyUnverifiablePopulations(t *testing.T) {
	f, clk := v6World(t)
	s := NewSession(f.Vantage("st"), clk)
	for _, set := range []alias.Set{
		alias.NewSet(addrs("2a00:3::1", "2a00:3::2")...), // random IDs
		alias.NewSet(addrs("2a00:4::1", "2a00:4::2")...), // no fragments
		alias.NewSet(addrs("2a00:5::1", "2a00:1::1")...), // constant + one usable
	} {
		if res := s.VerifySet(set); res.Outcome != OutcomeUnverifiable {
			t.Errorf("set %v outcome = %v, want unverifiable", set.Addrs, res.Outcome)
		}
	}
}

func TestClassify(t *testing.T) {
	base := time.Unix(0, 0)
	mk := func(ids ...uint32) Series {
		var s Series
		for i, id := range ids {
			s.Samples = append(s.Samples, Sample{T: base.Add(time.Duration(i) * time.Second), ID: id})
		}
		return s
	}
	cases := []struct {
		s    Series
		want Class
	}{
		{mk(), ClassNoFragments},
		{mk(1, 2), ClassNoFragments},
		{mk(10, 20, 30), ClassUsable},
		{mk(10, 5, 30), ClassNonMonotonic},
		{mk(7, 7, 7), ClassConstant},
		{mk(0, 1<<20, 1<<21), ClassTooFast},
	}
	for i, c := range cases {
		if got := Classify(c.s, 10000); got != c.want {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}

func TestMBT32(t *testing.T) {
	base := time.Unix(0, 0)
	a := Series{Samples: []Sample{
		{T: base, ID: 100}, {T: base.Add(2 * time.Second), ID: 120},
		{T: base.Add(4 * time.Second), ID: 140},
	}}
	good := Series{Samples: []Sample{
		{T: base.Add(time.Second), ID: 110}, {T: base.Add(3 * time.Second), ID: 130},
	}}
	if !MBT(a, good, 10, 64) {
		t.Error("consistent counters rejected")
	}
	bad := Series{Samples: []Sample{
		{T: base.Add(time.Second), ID: 5_000_000}, {T: base.Add(3 * time.Second), ID: 5_000_020},
	}}
	if MBT(a, bad, 10, 64) {
		t.Error("divergent counters accepted")
	}
	if MBT(Series{}, good, 10, 64) {
		t.Error("empty series accepted")
	}
}

func TestStrings(t *testing.T) {
	for c, want := range map[Class]string{
		ClassNoFragments: "no-fragments", ClassNonMonotonic: "non-monotonic",
		ClassConstant: "constant", ClassTooFast: "too-fast",
		ClassUsable: "usable", Class(9): "unknown",
	} {
		if c.String() != want {
			t.Errorf("Class %d = %q", c, c.String())
		}
	}
	for o, want := range map[Outcome]string{
		OutcomeUnverifiable: "unverifiable", OutcomeConfirmed: "confirmed",
		OutcomeSplit: "split", Outcome(9): "unknown",
	} {
		if o.String() != want {
			t.Errorf("Outcome %d = %q", o, o.String())
		}
	}
}
