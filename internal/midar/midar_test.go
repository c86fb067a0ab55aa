package midar

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/netsim"
)

// world builds a fabric with devices of each counter temperament. Every
// router but r-silent answers both techniques' probes: router r's interface
// i is 10.r.0.i for MIDAR and 2a00:r::i for Speedtrap.
func world(t *testing.T) (*netsim.Fabric, *netsim.SimClock) {
	t.Helper()
	clk := netsim.NewSimClock(time.Unix(50000, 0))
	f := netsim.New(clk)
	add := func(id string, model netsim.IPIDModel, velocity float64, answers bool, addrs ...string) {
		var as []netip.Addr
		for _, s := range addrs {
			as = append(as, netip.MustParseAddr(s))
		}
		d, err := netsim.NewDevice(netsim.DeviceConfig{
			ID: id, Addrs: as, IPID: model, IPIDVelocity: velocity,
			IPIDSeed: 12345, Pingable: answers, EmitsFragmentIDs: answers,
		}, clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	// Two routers with shared monotonic counters (the happy case).
	add("r-shared-1", netsim.IPIDSharedMonotonic, 40, true,
		"10.1.0.1", "10.1.0.2", "10.1.0.3", "2a00:1::1", "2a00:1::2", "2a00:1::3")
	add("r-shared-2", netsim.IPIDSharedMonotonic, 25, true,
		"10.2.0.1", "10.2.0.2", "2a00:2::1", "2a00:2::2")
	// One per-interface router: self-monotonic, cross-interface inconsistent.
	add("r-perif", netsim.IPIDPerInterface, 0, true, "10.3.0.1", "10.3.0.2", "2a00:3::1", "2a00:3::2")
	// Random and zero devices.
	add("r-random", netsim.IPIDRandom, 0, true, "10.4.0.1", "10.4.0.2", "2a00:4::1", "2a00:4::2")
	add("r-zero", netsim.IPIDZero, 0, true, "10.5.0.1", "2a00:5::1")
	// High-velocity shared counter.
	add("r-fast", netsim.IPIDHighVelocity, 200000, true, "10.6.0.1", "10.6.0.2", "2a00:6::1", "2a00:6::2")
	// A shared counter behind a router that answers neither probe: no echo
	// replies and, as on most IPv6 devices, no fragments.
	add("r-silent", netsim.IPIDSharedMonotonic, 20, false, "10.7.0.1", "10.7.0.2", "2a00:7::1", "2a00:7::2")
	return f, clk
}

// eachTechnique runs body once per technique: MIDAR over the routers' IPv4
// addresses and Speedtrap over their IPv6 ones. fresh builds a session on a
// fresh world; ip(r, i) names interface i of router r in the technique's
// family.
func eachTechnique(t *testing.T, body func(t *testing.T, fresh func() *Session, ip func(r, i int) netip.Addr)) {
	for _, tech := range []struct {
		name    string
		session func(*netsim.Fabric, *netsim.SimClock) *Session
		format  string
	}{
		{"midar", func(f *netsim.Fabric, clk *netsim.SimClock) *Session {
			return NewSession(f.Vantage("midar"), clk, Config{})
		}, "10.%d.0.%d"},
		{"speedtrap", func(f *netsim.Fabric, clk *netsim.SimClock) *Session {
			return NewSpeedtrapSession(f.Vantage("speedtrap"), clk)
		}, "2a00:%d::%d"},
	} {
		t.Run(tech.name, func(t *testing.T) {
			fresh := func() *Session { return tech.session(world(t)) }
			body(t, fresh, func(r, i int) netip.Addr {
				return netip.MustParseAddr(fmt.Sprintf(tech.format, r, i))
			})
		})
	}
}

func mustAddrs(ss ...string) []netip.Addr {
	var out []netip.Addr
	for _, s := range ss {
		out = append(out, netip.MustParseAddr(s))
	}
	return out
}

// series32 builds a 32-bit series sampled once a second.
func series32(ids ...uint32) Series {
	s := Series{Modulus: 1 << 32}
	for i, id := range ids {
		s.Samples = append(s.Samples, Sample{T: time.Unix(int64(i), 0), ID: id})
	}
	return s
}

func TestClassification(t *testing.T) {
	eachTechnique(t, func(t *testing.T, fresh func() *Session, ip func(r, i int) netip.Addr) {
		s := fresh()
		res := s.VerifySet(alias.NewSet(ip(1, 1), ip(3, 1), ip(4, 1), ip(5, 1), ip(6, 1), ip(7, 1), ip(99, 1)))
		if len(res.Classes) != len(res.Candidate.Addrs) {
			t.Fatalf("%d classes for %d candidate addresses", len(res.Classes), len(res.Candidate.Addrs))
		}
		classes := make(map[netip.Addr]Class)
		for i, a := range res.Candidate.Addrs {
			classes[a] = res.Classes[i]
		}
		want := map[netip.Addr]Class{
			ip(1, 1):  ClassUsable,
			ip(3, 1):  ClassUsable, // per-interface looks fine in isolation
			ip(4, 1):  ClassTooFast,
			ip(5, 1):  ClassConstant,
			ip(6, 1):  ClassTooFast,
			ip(7, 1):  ClassUnresponsive,
			ip(99, 1): ClassUnresponsive,
		}
		for addr, wc := range want {
			if got := classes[addr]; got != wc {
				t.Errorf("%s classified %v, want %v", addr, got, wc)
			}
		}
	})
	t.Run("32-bit", func(t *testing.T) {
		for i, c := range []struct {
			s    Series
			want Class
		}{
			{series32(), ClassUnresponsive},
			{series32(1, 2), ClassUnresponsive},
			{series32(10, 20, 30), ClassUsable},
			// A backward step unwraps to an advance of nearly 2^32.
			{series32(10, 5, 30), ClassTooFast},
			{series32(7, 7, 7), ClassConstant},
			{series32(0, 1<<20, 1<<21), ClassTooFast},
		} {
			if got := Classify(c.s, 10000); got != c.want {
				t.Errorf("case %d: %v, want %v", i, got, c.want)
			}
		}
	})
}

func TestVerifyConfirmsTrueAliases(t *testing.T) {
	eachTechnique(t, func(t *testing.T, fresh func() *Session, ip func(r, i int) netip.Addr) {
		s := fresh()
		res := s.VerifySet(alias.NewSet(ip(1, 1), ip(1, 2), ip(1, 3)))
		if res.Outcome != OutcomeConfirmed {
			t.Errorf("true alias set: outcome = %v, partition = %v", res.Outcome, res.Partition)
		}
		if want := []Class{ClassUsable, ClassUsable, ClassUsable}; !slices.Equal(res.Classes, want) {
			t.Errorf("classes = %v, want %v", res.Classes, want)
		}
	})
}

func TestVerifySplitsFalseAliases(t *testing.T) {
	eachTechnique(t, func(t *testing.T, fresh func() *Session, ip func(r, i int) netip.Addr) {
		s := fresh()
		// Addresses from two different routers grouped (wrongly) into one set.
		res := s.VerifySet(alias.NewSet(ip(1, 1), ip(2, 1)))
		if res.Outcome != OutcomeSplit {
			t.Errorf("cross-device set: outcome = %v, want split", res.Outcome)
		}
	})
}

// TestPartitionDeterministic verifies a set of two true alias pairs on fresh
// worlds and requires the same partition, in the same order, every time.
func TestPartitionDeterministic(t *testing.T) {
	eachTechnique(t, func(t *testing.T, fresh func() *Session, ip func(r, i int) netip.Addr) {
		want := []alias.Set{alias.NewSet(ip(1, 1), ip(1, 2)), alias.NewSet(ip(2, 1), ip(2, 2))}
		for run := 0; run < 20; run++ {
			res := fresh().VerifySet(alias.NewSet(ip(1, 1), ip(1, 2), ip(2, 1), ip(2, 2)))
			if !reflect.DeepEqual(res.Partition, want) {
				t.Fatalf("run %d: partition = %v, want %v", run, res.Partition, want)
			}
		}
	})
}

func TestVerifySplitsPerInterfaceCounters(t *testing.T) {
	eachTechnique(t, func(t *testing.T, fresh func() *Session, ip func(r, i int) netip.Addr) {
		s := fresh()
		res := s.VerifySet(alias.NewSet(ip(3, 1), ip(3, 2)))
		// Both usable in isolation, but the interleaved test must refuse to
		// merge independent counters (they are genuine aliases, but the
		// technique cannot see that — a known false-negative mode).
		if res.Outcome != OutcomeSplit {
			t.Errorf("per-interface set: outcome = %v, want split", res.Outcome)
		}
	})
}

func TestVerifyUnverifiable(t *testing.T) {
	eachTechnique(t, func(t *testing.T, fresh func() *Session, ip func(r, i int) netip.Addr) {
		s := fresh()
		for _, set := range []alias.Set{
			alias.NewSet(ip(4, 1), ip(4, 2)), // random IDs
			alias.NewSet(ip(6, 1), ip(6, 2)), // too fast
			alias.NewSet(ip(5, 1), ip(1, 1)), // constant + one usable
			alias.NewSet(ip(7, 1), ip(7, 2)), // no replies (no fragments)
		} {
			res := s.VerifySet(set)
			if res.Outcome != OutcomeUnverifiable {
				t.Errorf("set %v: outcome = %v, want unverifiable", set.Addrs, res.Outcome)
			}
		}
	})
}

func TestVerifySetsTally(t *testing.T) {
	eachTechnique(t, func(t *testing.T, fresh func() *Session, ip func(r, i int) netip.Addr) {
		s := fresh()
		candidates := []alias.Set{
			alias.NewSet(ip(1, 1), ip(1, 2), ip(1, 3)), // confirmed
			alias.NewSet(ip(2, 1), ip(2, 2)),           // confirmed
			alias.NewSet(ip(1, 1), ip(2, 1)),           // split
			alias.NewSet(ip(4, 1), ip(4, 2)),           // unverifiable
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
	})
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
	for _, c := range []struct {
		name    string
		modulus uint64
		top     uint32 // the counter's largest value
	}{
		{"16-bit", 0, 1<<16 - 1},
		{"32-bit", 1 << 32, 1<<32 - 1},
	} {
		base := time.Unix(0, 0)
		s := Series{Modulus: c.modulus, Samples: []Sample{
			{T: base, ID: c.top - 5},
			{T: base.Add(time.Second), ID: c.top - 1},
			{T: base.Add(2 * time.Second), ID: 3}, // wraps
			{T: base.Add(3 * time.Second), ID: 10},
		}}
		un := s.Unwrap()
		// top-5 → top-1 (+4) → wraps to 3 (+5) → 10 (+7).
		first := uint64(c.top - 5)
		want := []uint64{first, first + 4, first + 9, first + 16}
		for i := range want {
			if un[i] != want[i] {
				t.Errorf("%s: unwrap[%d] = %d, want %d", c.name, i, un[i], want[i])
			}
		}
		v, ok := s.Velocity()
		if !ok || v < 5.2 || v > 5.4 {
			t.Errorf("%s: velocity = %v,%v, want 16/3", c.name, v, ok)
		}
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
	mk := func(start time.Time, ids ...uint32) Series {
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

	t.Run("32-bit", func(t *testing.T) {
		wide := func(s Series) Series { s.Modulus = 1 << 32; return s }
		a := wide(mk(base, 100, 120, 140))
		interleave := func(ids ...uint32) Series {
			return wide(Series{Samples: []Sample{
				{T: base.Add(time.Second), ID: ids[0]}, {T: base.Add(3 * time.Second), ID: ids[1]},
			}})
		}
		if !MBT(a, interleave(110, 130), 10, 64) {
			t.Error("consistent counters rejected")
		}
		// Far ahead, and a step backwards, which unwraps to nearly 2^32.
		for _, bad := range []Series{interleave(5_000_000, 5_000_020), interleave(90, 130)} {
			if MBT(a, bad, 10, 64) {
				t.Errorf("divergent counter %v accepted", bad.Samples)
			}
		}
		if MBT(Series{Modulus: 1 << 32}, interleave(110, 130), 10, 64) {
			t.Error("empty series accepted")
		}
	})
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
