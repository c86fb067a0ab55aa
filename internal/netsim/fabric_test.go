package netsim

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(conn net.Conn, sc ServeContext)

// Serve implements Handler.
func (f HandlerFunc) Serve(conn net.Conn, sc ServeContext) { f(conn, sc) }

func mustAddr(t testing.TB, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", s, err)
	}
	return a
}

func testDevice(t testing.TB, cfg DeviceConfig) *Device {
	t.Helper()
	d, err := NewDevice(cfg, time.Unix(0, 0))
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func echoHandler() Handler {
	return HandlerFunc(func(conn net.Conn, sc ServeContext) {
		fmt.Fprintf(conn, "hello from %s\n", sc.LocalAddr)
	})
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(DeviceConfig{}, time.Time{}); err == nil {
		t.Error("want error for missing ID")
	}
	if _, err := NewDevice(DeviceConfig{ID: "d"}, time.Time{}); err == nil {
		t.Error("want error for no addresses")
	}
	a := netip.MustParseAddr("10.0.0.1")
	if _, err := NewDevice(DeviceConfig{ID: "d", Addrs: []netip.Addr{a, a}}, time.Time{}); err == nil {
		t.Error("want error for duplicate address")
	}
	if _, err := NewDevice(DeviceConfig{ID: "d", Addrs: []netip.Addr{{}}}, time.Time{}); err == nil {
		t.Error("want error for invalid address")
	}
}

func TestFabricBindAndLookup(t *testing.T) {
	f := New(NewSimClock(time.Unix(0, 0)))
	a1 := mustAddr(t, "10.0.0.1")
	a2 := mustAddr(t, "10.0.0.2")
	d := testDevice(t, DeviceConfig{ID: "r1", ASN: 65001, Addrs: []netip.Addr{a1, a2}})
	if err := f.AddDevice(d); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	if got := f.Lookup(a1); got != d {
		t.Errorf("Lookup(%s) = %v, want r1", a1, got)
	}
	if got := f.Lookup(a2); got != d {
		t.Errorf("Lookup(%s) = %v, want r1", a2, got)
	}
	if f.NumDevices() != 1 {
		t.Errorf("NumDevices = %d, want 1", f.NumDevices())
	}

	// A second device may not claim a bound address.
	d2 := testDevice(t, DeviceConfig{ID: "r2", Addrs: []netip.Addr{a2}})
	if err := f.AddDevice(d2); err == nil {
		t.Error("AddDevice with conflicting address: want error")
	}

	// Churn: unbind then rebind.
	f.Unbind(a2)
	if f.Lookup(a2) != nil {
		t.Error("Lookup after Unbind: want nil")
	}
	if err := f.Bind(a2, "r1"); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if f.Lookup(a2) != d {
		t.Error("Lookup after Bind: want r1")
	}
	if err := f.Bind(a1, "missing"); err == nil {
		t.Error("Bind to unknown device: want error")
	}
	if err := f.Bind(mustAddr(t, "10.9.9.9"), "r1"); err == nil {
		t.Error("Bind of address the device does not own: want error")
	}
}

func TestSynProbeStatuses(t *testing.T) {
	f := New(NewSimClock(time.Unix(0, 0)))
	open := mustAddr(t, "10.0.0.1")
	aclOnly := mustAddr(t, "10.0.0.2")
	d := testDevice(t, DeviceConfig{ID: "r1", Addrs: []netip.Addr{open, aclOnly}})
	d.SetService(22, echoHandler(), open) // ACL: SSH answers only on .1
	if err := f.AddDevice(d); err != nil {
		t.Fatal(err)
	}
	v := f.Vantage("probe1")

	if got := v.SynProbe(open, 22); got != StatusOpen {
		t.Errorf("SynProbe(open,22) = %v, want open", got)
	}
	if got := v.SynProbe(aclOnly, 22); got != StatusFiltered {
		t.Errorf("SynProbe(acl,22) = %v, want filtered (ACL drop)", got)
	}
	if got := v.SynProbe(open, 179); got != StatusClosed {
		t.Errorf("SynProbe(open,179) = %v, want closed", got)
	}
	if got := v.SynProbe(mustAddr(t, "10.255.0.1"), 22); got != StatusFiltered {
		t.Errorf("SynProbe(unrouted) = %v, want filtered", got)
	}
}

func TestVantageFiltering(t *testing.T) {
	f := New(NewSimClock(time.Unix(0, 0)))
	a := mustAddr(t, "10.0.0.1")
	d := testDevice(t, DeviceConfig{
		ID: "r1", Addrs: []netip.Addr{a},
		FilteredVantages: []string{"active"},
		Pingable:         true,
	})
	d.SetService(22, echoHandler())
	if err := f.AddDevice(d); err != nil {
		t.Fatal(err)
	}

	if got := f.Vantage("active").SynProbe(a, 22); got != StatusFiltered {
		t.Errorf("filtered vantage SynProbe = %v, want filtered", got)
	}
	if got := f.Vantage("censys").SynProbe(a, 22); got != StatusOpen {
		t.Errorf("other vantage SynProbe = %v, want open", got)
	}
	if _, ok := f.Vantage("active").IPIDProbe(a); ok {
		t.Error("filtered vantage IPIDProbe should fail")
	}
	if _, ok := f.Vantage("censys").IPIDProbe(a); !ok {
		t.Error("other vantage IPIDProbe should succeed")
	}
}

func TestDialOpenClosedFiltered(t *testing.T) {
	f := New(NewSimClock(time.Unix(0, 0)))
	a := mustAddr(t, "192.0.2.1")
	d := testDevice(t, DeviceConfig{ID: "r1", Addrs: []netip.Addr{a}})
	d.SetService(22, echoHandler())
	if err := f.AddDevice(d); err != nil {
		t.Fatal(err)
	}
	v := f.Vantage("t")
	ctx := context.Background()

	conn, err := v.DialContext(ctx, "tcp", "192.0.2.1:22")
	if err != nil {
		t.Fatalf("dial open: %v", err)
	}
	defer conn.Close()
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if want := "hello from 192.0.2.1\n"; line != want {
		t.Errorf("read %q, want %q", line, want)
	}
	if got := conn.RemoteAddr().String(); got != "192.0.2.1:22" {
		t.Errorf("RemoteAddr = %q, want 192.0.2.1:22", got)
	}

	if _, err := v.DialContext(ctx, "tcp", "192.0.2.1:80"); !errors.Is(err, ErrRefused) {
		t.Errorf("dial closed port: err = %v, want refused", err)
	}
	var ne net.Error
	if _, err := v.DialContext(ctx, "tcp", "192.0.2.99:22"); !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("dial unrouted: err = %v, want timeout-flavoured", err)
	}
	if _, err := v.DialContext(ctx, "udp", "192.0.2.1:22"); err == nil {
		t.Error("dial udp: want error")
	}
	if _, err := v.DialContext(ctx, "tcp", "no-port"); err == nil {
		t.Error("dial bad address: want error")
	}
	if _, err := v.DialContext(ctx, "tcp", "not-an-ip:22"); err == nil {
		t.Error("dial non-IP host: want error")
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := v.DialContext(cancelled, "tcp", "192.0.2.1:22"); err == nil {
		t.Error("dial with cancelled context: want error")
	}
}

func TestDialIPv6(t *testing.T) {
	f := New(NewSimClock(time.Unix(0, 0)))
	a := mustAddr(t, "2001:db8::1")
	d := testDevice(t, DeviceConfig{ID: "r1", Addrs: []netip.Addr{a}})
	d.SetService(22, echoHandler())
	if err := f.AddDevice(d); err != nil {
		t.Fatal(err)
	}
	conn, err := f.Vantage("t").DialContext(context.Background(), "tcp", "[2001:db8::1]:22")
	if err != nil {
		t.Fatalf("dial v6: %v", err)
	}
	defer conn.Close()
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if want := "hello from 2001:db8::1\n"; line != want {
		t.Errorf("read %q, want %q", line, want)
	}
}

func TestServeContextReportsInterface(t *testing.T) {
	f := New(NewSimClock(time.Unix(0, 0)))
	a1 := mustAddr(t, "10.0.0.1")
	a2 := mustAddr(t, "10.0.0.2")
	d := testDevice(t, DeviceConfig{ID: "r1", Addrs: []netip.Addr{a1, a2}})
	got := make(chan netip.Addr, 2)
	d.SetService(22, HandlerFunc(func(conn net.Conn, sc ServeContext) {
		got <- sc.LocalAddr
	}))
	if err := f.AddDevice(d); err != nil {
		t.Fatal(err)
	}
	v := f.Vantage("t")
	for _, target := range []string{"10.0.0.1:22", "10.0.0.2:22"} {
		conn, err := v.DialContext(context.Background(), "tcp", target)
		if err != nil {
			t.Fatalf("dial %s: %v", target, err)
		}
		conn.Close()
	}
	seen := map[netip.Addr]bool{<-got: true, <-got: true}
	if !seen[a1] || !seen[a2] {
		t.Errorf("handler saw %v, want both %s and %s", seen, a1, a2)
	}
}

func TestIPIDModels(t *testing.T) {
	clk := NewSimClock(time.Unix(1000, 0))
	f := New(clk)
	mk := func(id string, model IPIDModel, velocity float64, addrs ...string) []netip.Addr {
		var as []netip.Addr
		for _, s := range addrs {
			as = append(as, mustAddr(t, s))
		}
		d := testDevice(t, DeviceConfig{
			ID: id, Addrs: as, IPID: model, IPIDVelocity: velocity,
			IPIDSeed: 42, Pingable: true,
		})
		if err := f.AddDevice(d); err != nil {
			t.Fatal(err)
		}
		return as
	}
	v := f.Vantage("t")

	t.Run("shared monotonic counts across interfaces", func(t *testing.T) {
		as := mk("shared", IPIDSharedMonotonic, 0, "10.1.0.1", "10.1.0.2")
		x1, ok := v.IPIDProbe(as[0])
		if !ok {
			t.Fatal("probe failed")
		}
		x2, _ := v.IPIDProbe(as[1])
		x3, _ := v.IPIDProbe(as[0])
		if x2 != x1+1 || x3 != x2+1 {
			t.Errorf("shared counter not monotonic across interfaces: %d %d %d", x1, x2, x3)
		}
	})

	t.Run("velocity advances with clock", func(t *testing.T) {
		as := mk("vel", IPIDSharedMonotonic, 100, "10.2.0.1")
		x1, _ := v.IPIDProbe(as[0])
		clk.Advance(1 * time.Second)
		x2, _ := v.IPIDProbe(as[0])
		diff := int(uint16(x2 - x1))
		if diff < 90 || diff > 110 {
			t.Errorf("velocity 100 pps over 1s: diff = %d, want ~101", diff)
		}
	})

	t.Run("per-interface counters diverge", func(t *testing.T) {
		as := mk("perif", IPIDPerInterface, 0, "10.3.0.1", "10.3.0.2")
		a1a, _ := v.IPIDProbe(as[0])
		b1, _ := v.IPIDProbe(as[1])
		a2, _ := v.IPIDProbe(as[0])
		if a2 != a1a+1 {
			t.Errorf("per-interface counter on if0 not monotonic: %d then %d", a1a, a2)
		}
		if b1 == a1a+1 {
			t.Errorf("interfaces appear to share a counter: %d %d", a1a, b1)
		}
	})

	t.Run("zero model answers zero", func(t *testing.T) {
		as := mk("zero", IPIDZero, 0, "10.4.0.1")
		for i := 0; i < 3; i++ {
			if x, _ := v.IPIDProbe(as[0]); x != 0 {
				t.Fatalf("zero model answered %d", x)
			}
		}
	})

	t.Run("unpingable device does not answer", func(t *testing.T) {
		a := mustAddr(t, "10.5.0.1")
		d := testDevice(t, DeviceConfig{ID: "mute", Addrs: []netip.Addr{a}, Pingable: false})
		if err := f.AddDevice(d); err != nil {
			t.Fatal(err)
		}
		if _, ok := v.IPIDProbe(a); ok {
			t.Error("unpingable device answered IPID probe")
		}
	})
}

func TestUDPProbeICMPSource(t *testing.T) {
	f := New(NewSimClock(time.Unix(0, 0)))
	canon4 := mustAddr(t, "10.0.0.1")
	other4 := mustAddr(t, "10.0.0.2")
	v6 := mustAddr(t, "2001:db8::1")
	d := testDevice(t, DeviceConfig{ID: "r1", Addrs: []netip.Addr{canon4, other4, v6}})
	if err := f.AddDevice(d); err != nil {
		t.Fatal(err)
	}
	v := f.Vantage("t")

	from, ok := v.UDPProbe(other4, 33434)
	if !ok || from != canon4 {
		t.Errorf("UDPProbe(%s) = %s,%v; want canonical %s", other4, from, ok, canon4)
	}
	// Family-matched canonical source for IPv6 probes.
	from6, ok := v.UDPProbe(v6, 33434)
	if !ok || from6 != v6 {
		t.Errorf("UDPProbe(v6) = %s,%v; want %s", from6, ok, v6)
	}

	// RespondsFromProbed defeats the technique.
	a := mustAddr(t, "10.9.0.1")
	b := mustAddr(t, "10.9.0.2")
	d2 := testDevice(t, DeviceConfig{ID: "r2", Addrs: []netip.Addr{a, b}, RespondsFromProbed: true})
	if err := f.AddDevice(d2); err != nil {
		t.Fatal(err)
	}
	if from, _ := v.UDPProbe(b, 33434); from != b {
		t.Errorf("RespondsFromProbed: from = %s, want %s", from, b)
	}

	// Silent devices say nothing.
	c := mustAddr(t, "10.9.1.1")
	d3 := testDevice(t, DeviceConfig{ID: "r3", Addrs: []netip.Addr{c}, ICMPSilent: true})
	if err := f.AddDevice(d3); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.UDPProbe(c, 33434); ok {
		t.Error("ICMP-silent device responded")
	}
	if _, ok := v.UDPProbe(mustAddr(t, "10.200.0.1"), 33434); ok {
		t.Error("unrouted address responded")
	}
}

func TestDeviceServiceViews(t *testing.T) {
	a1 := mustAddr(t, "10.0.0.1")
	a2 := mustAddr(t, "10.0.0.2")
	d := testDevice(t, DeviceConfig{ID: "r1", ASN: 65010, Addrs: []netip.Addr{a1, a2},
		AddrASN: map[netip.Addr]uint32{a2: 65020}})
	d.SetService(22, echoHandler())
	d.SetService(179, echoHandler(), a1)

	if got := d.ServiceAddrs(22); len(got) != 2 {
		t.Errorf("ServiceAddrs(22) = %v, want both interfaces", got)
	}
	if got := d.ServiceAddrs(179); len(got) != 1 || got[0] != a1 {
		t.Errorf("ServiceAddrs(179) = %v, want [%s]", got, a1)
	}
	if got := d.ServiceAddrs(80); got != nil {
		t.Errorf("ServiceAddrs(80) = %v, want nil", got)
	}

	if d.AddrASN(a1) != 65010 {
		t.Errorf("AddrASN(a1) = %d, want device ASN 65010", d.AddrASN(a1))
	}
	if d.AddrASN(a2) != 65020 {
		t.Errorf("AddrASN(a2) = %d, want override 65020", d.AddrASN(a2))
	}
	if !d.HasAddr(a2) || d.HasAddr(mustAddr(t, "10.0.0.3")) {
		t.Error("HasAddr misbehaves")
	}
}

func TestSimClock(t *testing.T) {
	origin := time.Unix(5000, 0)
	c := NewSimClock(origin)
	if !c.Now().Equal(origin) {
		t.Errorf("Now = %v, want %v", c.Now(), origin)
	}
	c.Advance(3 * time.Second)
	if got := c.Now(); !got.Equal(origin.Add(3 * time.Second)) {
		t.Errorf("after Advance: %v", got)
	}
	c.Advance(-time.Hour) // ignored
	if got := c.Now(); !got.Equal(origin.Add(3 * time.Second)) {
		t.Errorf("negative Advance changed clock: %v", got)
	}
	var rc RealClock
	if rc.Now().IsZero() {
		t.Error("RealClock returned zero time")
	}
}

func TestProbeStatusAndKindStrings(t *testing.T) {
	cases := map[fmt.Stringer]string{
		StatusFiltered:      "filtered",
		StatusClosed:        "closed",
		StatusOpen:          "open",
		ProbeStatus(99):     "invalid",
		KindRouter:          "router",
		KindServer:          "server",
		DeviceKind(9):       "unknown",
		IPIDSharedMonotonic: "shared-monotonic",
		IPIDPerInterface:    "per-interface",
		IPIDRandom:          "random",
		IPIDZero:            "zero",
		IPIDHighVelocity:    "high-velocity",
		IPIDModel(77):       "unknown",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%T(%v).String() = %q, want %q", v, v, got, want)
		}
	}
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestClosedConnsReleaseMemory: a closed simulated connection must not stay
// reachable. net.Pipe arms one timer per deadline, Close does not stop them,
// and after either end closes SetDeadline can no longer clear them — so
// without simConn's Close every dialed pair would be held until its
// deadlines fire, minutes later for a grab timeout.
func TestClosedConnsReleaseMemory(t *testing.T) {
	f := New(NewSimClock(time.Unix(0, 0)))
	a := netip.MustParseAddr("192.0.2.1")
	d, err := NewDevice(DeviceConfig{ID: "r1", Addrs: []netip.Addr{a}}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var served sync.WaitGroup
	d.SetService(22, HandlerFunc(func(conn net.Conn, _ ServeContext) {
		defer served.Done()
		conn.SetDeadline(time.Now().Add(2 * time.Minute))
		io.Copy(io.Discard, conn)
	}))
	if err := f.AddDevice(d); err != nil {
		t.Fatal(err)
	}
	v := f.Vantage("t")

	const conns = 4000
	before := liveHeap()
	for i := 0; i < conns; i++ {
		served.Add(1)
		c, err := v.DialContext(context.Background(), "tcp", "192.0.2.1:22")
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(2 * time.Minute))
		c.Close()
	}
	served.Wait()

	// The servers' own Close runs after their handlers return; give the
	// goroutines a moment to exit before judging the heap.
	const slack = 1 << 20
	var after uint64
	for try := 0; try < 50; try++ {
		if after = liveHeap(); after < before+slack {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("live heap grew %d KiB over %d closed connections (before %d KiB, after %d KiB)",
		(after-before)>>10, conns, before>>10, after>>10)
}
