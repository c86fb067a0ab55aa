package netsim

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

func fragDevice(t *testing.T, f *Fabric, id string, model IPIDModel, filtered []string, addrs ...string) []netip.Addr {
	t.Helper()
	var as []netip.Addr
	for _, s := range addrs {
		as = append(as, netip.MustParseAddr(s))
	}
	d, err := NewDevice(DeviceConfig{
		ID: id, Addrs: as, IPID: model, IPIDSeed: 99, IPIDVelocity: 10,
		Pingable: true, EmitsFragmentIDs: true, FilteredVantages: filtered,
	}, f.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddDevice(d); err != nil {
		t.Fatal(err)
	}
	return as
}

func TestFragIDSharedAcrossV6Interfaces(t *testing.T) {
	clk := NewSimClock(time.Unix(0, 0))
	f := New(clk)
	as := fragDevice(t, f, "r1", IPIDSharedMonotonic, nil, "2a00:1::1", "2a00:1::2")
	v := f.Vantage("t")
	x1, ok1 := v.FragIDProbe(as[0])
	x2, ok2 := v.FragIDProbe(as[1])
	if !ok1 || !ok2 {
		t.Fatal("frag probes failed")
	}
	if x2 != x1+1 {
		t.Errorf("shared 32-bit counter not monotonic across interfaces: %d %d", x1, x2)
	}
}

func TestFragIDModels(t *testing.T) {
	clk := NewSimClock(time.Unix(0, 0))
	f := New(clk)
	v := f.Vantage("t")

	zero := fragDevice(t, f, "z", IPIDZero, nil, "2a00:2::1")
	if x, _ := v.FragIDProbe(zero[0]); x != 0 {
		t.Errorf("zero model answered %d", x)
	}
	perif := fragDevice(t, f, "p", IPIDPerInterface, nil, "2a00:3::1", "2a00:3::2")
	a1, _ := v.FragIDProbe(perif[0])
	b1, _ := v.FragIDProbe(perif[1])
	a2, _ := v.FragIDProbe(perif[0])
	if a2 != a1+1 {
		t.Errorf("per-interface counter not self-monotonic: %d %d", a1, a2)
	}
	if b1 == a1+1 {
		t.Errorf("per-interface counters appear shared: %d %d", a1, b1)
	}
	rnd := fragDevice(t, f, "r", IPIDRandom, nil, "2a00:4::1")
	x1, _ := v.FragIDProbe(rnd[0])
	x2, _ := v.FragIDProbe(rnd[0])
	x3, _ := v.FragIDProbe(rnd[0])
	if x1+1 == x2 && x2+1 == x3 {
		t.Error("random model produced a perfect counter (astronomically unlikely)")
	}
}

// TestFragProbeGating checks which addresses answer a fragment-ID probe: an
// emitter's IPv6 address does; an address of a device that never fragments,
// a dual-stack emitter's IPv4 address and an unrouted address do not.
func TestFragProbeGating(t *testing.T) {
	clk := NewSimClock(time.Unix(0, 0))
	f := New(clk)
	fragDevice(t, f, "dual", IPIDSharedMonotonic, nil, "10.6.0.1", "2a00:6::1")
	atomic, err := NewDevice(DeviceConfig{
		ID: "atomic", Addrs: []netip.Addr{netip.MustParseAddr("2a00:4::1")},
		IPID: IPIDSharedMonotonic, IPIDVelocity: 20, Pingable: true,
	}, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddDevice(atomic); err != nil {
		t.Fatal(err)
	}
	v := f.Vantage("t")
	for _, c := range []struct {
		addr string
		want bool
	}{
		{"2a00:6::1", true},
		{"2a00:4::1", false},  // never fragments
		{"10.6.0.1", false},   // the dual-stack emitter's IPv4 address
		{"2a00:99::1", false}, // unrouted
	} {
		if _, ok := v.FragIDProbe(netip.MustParseAddr(c.addr)); ok != c.want {
			t.Errorf("%s answered = %v, want %v", c.addr, ok, c.want)
		}
	}
}

func TestFragIDVantageFiltering(t *testing.T) {
	clk := NewSimClock(time.Unix(0, 0))
	f := New(clk)
	as := fragDevice(t, f, "flt", IPIDSharedMonotonic, []string{"blocked"}, "2a00:5::1")
	if _, ok := f.Vantage("blocked").FragIDProbe(as[0]); ok {
		t.Error("filtered vantage got an answer")
	}
	if _, ok := f.Vantage("open").FragIDProbe(as[0]); !ok {
		t.Error("unfiltered vantage got no answer")
	}
}

func TestConcurrentProbesAndDials(t *testing.T) {
	// Hammer one device from many goroutines across every probe type; the
	// race detector validates the locking story.
	clk := NewSimClock(time.Unix(0, 0))
	f := New(clk)
	as := fragDevice(t, f, "busy", IPIDSharedMonotonic, nil, "2a00:6::1", "2a00:6::2")
	d := f.Device("busy")
	d.SetService(22, HandlerFunc(func(conn net.Conn, sc ServeContext) {}))
	var wg sync.WaitGroup
	v := f.Vantage("t")
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.FragIDProbe(as[i%2])
				v.IPIDProbe(as[i%2])
				v.SynProbe(as[0], 22)
				v.UDPProbe(as[0], 33434)
			}
		}()
	}
	wg.Wait()
}
