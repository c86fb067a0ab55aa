package zgrab

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"aliaslimit/internal/bgp"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/sshwire"
	"aliaslimit/internal/xrand"
)

type detRand struct{ s *xrand.SplitMix64 }

func (r *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.s.Uint64())
	}
	return len(p), nil
}

// fixture builds a fabric with SSH and BGP devices.
func fixture(t *testing.T) (*netsim.Fabric, []netip.Addr, []netip.Addr) {
	t.Helper()
	clk := netsim.NewSimClock(time.Unix(0, 0))
	f := netsim.New(clk)
	var sshAddrs, bgpAddrs []netip.Addr

	for i := 0; i < 5; i++ {
		a := netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		sshAddrs = append(sshAddrs, a)
		_, priv, err := sshwire.GenerateEd25519(&detRand{s: xrand.NewSplitMix64(uint64(i))})
		if err != nil {
			t.Fatal(err)
		}
		p := sshwire.Profiles[i%len(sshwire.Profiles)]
		d, err := netsim.NewDevice(netsim.DeviceConfig{ID: a.String(), Addrs: []netip.Addr{a}}, clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		d.SetService(22, sshwire.NewServer(sshwire.ServerConfig{
			Banner: p.Banner, Algorithms: p.Algorithms, HostKey: priv,
		}))
		if err := f.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		a := netip.AddrFrom4([4]byte{10, 0, 1, byte(i + 1)})
		bgpAddrs = append(bgpAddrs, a)
		d, err := netsim.NewDevice(netsim.DeviceConfig{ID: a.String(), Addrs: []netip.Addr{a}}, clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		behavior := bgp.BehaviorOpenNotify
		if i == 2 {
			behavior = bgp.BehaviorSilentClose
		}
		d.SetService(179, bgp.NewSpeaker(bgp.SpeakerConfig{
			ASN: 65000 + uint32(i), RouterID: uint32(i + 1), HoldTime: 90, Behavior: behavior,
		}))
		if err := f.AddDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	return f, sshAddrs, bgpAddrs
}

func TestRunSSHModule(t *testing.T) {
	f, sshAddrs, _ := fixture(t)
	grabs := Run(f.Vantage("t"), sshAddrs, &SSHModule{Timeout: 2 * time.Second}, Options{Workers: 4})
	if len(grabs) != len(sshAddrs) {
		t.Fatalf("grabs = %d", len(grabs))
	}
	ok := Successes(grabs)
	if len(ok) != len(sshAddrs) {
		t.Fatalf("successes = %d, want %d", len(ok), len(sshAddrs))
	}
	for _, g := range ok {
		res, isSSH := g.Data.(*sshwire.ScanResult)
		if !isSSH || !res.HasIdentifierMaterial() {
			t.Errorf("grab %s lacks identifier material", g.Target)
		}
		if g.Module != "ssh" || g.Port != 22 {
			t.Errorf("grab metadata wrong: %+v", g)
		}
	}
	// Output sorted by target.
	for i := 1; i < len(grabs); i++ {
		if !grabs[i-1].Target.Less(grabs[i].Target) {
			t.Fatal("grabs not sorted")
		}
	}
}

// TestRunStreamEmitsEachGrabOnce feeds targets through a channel, as a
// phase-1 sweep does, and checks that each one reaches emit exactly once,
// answered or not.
func TestRunStreamEmitsEachGrabOnce(t *testing.T) {
	f, sshAddrs, bgpAddrs := fixture(t)
	targets := append(append([]netip.Addr(nil), sshAddrs...), bgpAddrs...)
	ch := make(chan netip.Addr)
	go func() {
		for _, a := range targets {
			ch <- a
		}
		close(ch)
	}()
	var mu sync.Mutex
	seen := make(map[netip.Addr]int)
	ok := 0
	RunStream(f.Vantage("t"), ch, &SSHModule{Timeout: time.Second}, Options{Workers: 3}, func(g Grab) {
		mu.Lock()
		defer mu.Unlock()
		seen[g.Target]++
		if g.OK() {
			ok++
		}
	})
	if len(seen) != len(targets) {
		t.Fatalf("emitted %d distinct targets, want %d", len(seen), len(targets))
	}
	for _, a := range targets {
		if seen[a] != 1 {
			t.Errorf("%s emitted %d times, want 1", a, seen[a])
		}
	}
	if ok != len(sshAddrs) {
		t.Errorf("%d successful grabs, want %d (the SSH hosts)", ok, len(sshAddrs))
	}
}

func TestRunBGPModule(t *testing.T) {
	f, _, bgpAddrs := fixture(t)
	grabs := Run(f.Vantage("t"), bgpAddrs, &BGPModule{Timeout: 500 * time.Millisecond}, Options{Workers: 2})
	identifiable := 0
	for _, g := range grabs {
		if !g.OK() {
			t.Errorf("grab %s failed: %v", g.Target, g.Err)
			continue
		}
		res := g.Data.(*bgp.ScanResult)
		if res.Identifiable() {
			identifiable++
		}
	}
	if identifiable != 2 {
		t.Errorf("identifiable = %d, want 2 (one speaker is silent)", identifiable)
	}
}

func TestRunRecordsDialFailures(t *testing.T) {
	f, _, _ := fixture(t)
	targets := []netip.Addr{
		netip.MustParseAddr("10.0.0.1"),  // open
		netip.MustParseAddr("10.0.0.99"), // unrouted -> timeout error
	}
	grabs := Run(f.Vantage("t"), targets, &SSHModule{Timeout: time.Second}, Options{Workers: 2})
	if len(grabs) != 2 {
		t.Fatal("want 2 grabs")
	}
	var okCount, errCount int
	for _, g := range grabs {
		if g.OK() {
			okCount++
		} else if g.Err != nil {
			errCount++
		}
	}
	if okCount != 1 || errCount != 1 {
		t.Errorf("ok=%d err=%d, want 1/1", okCount, errCount)
	}
}

func TestRunPortOverride(t *testing.T) {
	f, _, _ := fixture(t)
	grabs := Run(f.Vantage("t"), []netip.Addr{netip.MustParseAddr("10.0.0.1")},
		&SSHModule{Timeout: time.Second}, Options{Workers: 1, Port: 2222})
	if grabs[0].Port != 2222 {
		t.Errorf("port = %d", grabs[0].Port)
	}
	if grabs[0].OK() {
		t.Error("scan on closed port 2222 should fail")
	}
}

func TestRunEmptyTargets(t *testing.T) {
	f, _, _ := fixture(t)
	if got := Run(f.Vantage("t"), nil, &SSHModule{}, Options{}); len(got) != 0 {
		t.Errorf("grabs = %v", got)
	}
}

func TestModuleMetadata(t *testing.T) {
	var ssh SSHModule
	var bgpm BGPModule
	if ssh.Name() != "ssh" || ssh.DefaultPort() != 22 {
		t.Error("ssh module metadata")
	}
	if bgpm.Name() != "bgp" || bgpm.DefaultPort() != 179 {
		t.Error("bgp module metadata")
	}
}

// slowModule blocks to exercise concurrency limits.
type slowModule struct{ hold time.Duration }

func (m *slowModule) Name() string        { return "slow" }
func (m *slowModule) DefaultPort() uint16 { return 22 }
func (m *slowModule) Scan(conn net.Conn, _ netip.Addr) (any, error) {
	defer conn.Close()
	time.Sleep(m.hold)
	return "done", nil
}

func TestRunParallelism(t *testing.T) {
	f, sshAddrs, _ := fixture(t)
	start := time.Now()
	grabs := Run(f.Vantage("t"), sshAddrs, &slowModule{hold: 100 * time.Millisecond}, Options{Workers: 5})
	elapsed := time.Since(start)
	if len(Successes(grabs)) != len(sshAddrs) {
		t.Fatal("slow module failed")
	}
	// Five 100ms scans across five workers should take ~100ms, not 500ms.
	if elapsed > 350*time.Millisecond {
		t.Errorf("parallel run took %v", elapsed)
	}
}
