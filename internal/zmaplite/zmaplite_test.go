package zmaplite

import (
	"net"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"aliaslimit/internal/netsim"
)

// openPort binds a port that accepts and serves nothing: a SYN probe only
// needs the port open.
type openPort struct{}

// Serve implements netsim.Handler.
func (openPort) Serve(net.Conn, netsim.ServeContext) {}

func TestPermutationFullCycleProperty(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := uint64(nRaw%5000) + 1
		p, err := NewPermutation(n, seed)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		count := uint64(0)
		for {
			v, ok := p.Next()
			if !ok {
				break
			}
			if v >= n || seen[v] {
				return false
			}
			seen[v] = true
			count++
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPermutationEdgeSizes(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025} {
		p, err := NewPermutation(n, 42)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := map[uint64]bool{}
		for {
			v, ok := p.Next()
			if !ok {
				break
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate %d", n, v)
			}
			seen[v] = true
		}
		if uint64(len(seen)) != n {
			t.Errorf("n=%d: visited %d", n, len(seen))
		}
	}
	if _, err := NewPermutation(0, 1); err == nil {
		t.Error("n=0: want error")
	}
}

func TestPermutationIsActuallyShuffled(t *testing.T) {
	p, err := NewPermutation(1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	inOrder := 0
	prev := uint64(0)
	first := true
	for {
		v, ok := p.Next()
		if !ok {
			break
		}
		if !first && v == prev+1 {
			inOrder++
		}
		prev, first = v, false
	}
	if inOrder > 100 {
		t.Errorf("%d/1000 consecutive indices: not shuffled", inOrder)
	}
}

func TestPermutationDeterministicPerSeed(t *testing.T) {
	collect := func(seed uint64) []uint64 {
		p, _ := NewPermutation(64, seed)
		var out []uint64
		for {
			v, ok := p.Next()
			if !ok {
				return out
			}
			out = append(out, v)
		}
	}
	a, b, c := collect(1), collect(1), collect(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different order")
		}
	}
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff < 32 {
		t.Errorf("different seeds nearly identical (%d/64 differ)", diff)
	}
}

func TestScanClassification(t *testing.T) {
	clk := netsim.NewSimClock(time.Unix(0, 0))
	f := netsim.New(clk)
	var targets []netip.Addr
	wantOpen := map[netip.Addr]bool{}
	open, closed := 0, 0
	for i := 0; i < 300; i++ {
		addr := netip.AddrFrom4([4]byte{10, 0, byte(i / 250), byte(i%250 + 1)})
		targets = append(targets, addr)
		switch {
		case i%3 == 0:
			d, err := netsim.NewDevice(netsim.DeviceConfig{ID: addr.String(), Addrs: []netip.Addr{addr}}, clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			d.SetService(22, openPort{})
			if err := f.AddDevice(d); err != nil {
				t.Fatal(err)
			}
			wantOpen[addr] = true
			open++
		case i%5 == 0:
			d, err := netsim.NewDevice(netsim.DeviceConfig{ID: addr.String(), Addrs: []netip.Addr{addr}}, clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			if err := f.AddDevice(d); err != nil {
				t.Fatal(err)
			}
			closed++
		}
	}

	res, err := Scan(f.Vantage("t"), Config{Targets: targets, Port: 22, Seed: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Open) != open {
		t.Errorf("open = %d, want %d", len(res.Open), open)
	}
	if res.Closed != closed {
		t.Errorf("closed = %d, want %d", res.Closed, closed)
	}
	if res.Filtered != 300-open-closed {
		t.Errorf("filtered = %d, want %d", res.Filtered, 300-open-closed)
	}
	if res.Total() != 300 {
		t.Errorf("total = %d", res.Total())
	}
	for _, a := range res.Open {
		if !wantOpen[a] {
			t.Errorf("address %s reported open erroneously", a)
		}
	}
	// Output must be sorted for reproducible downstream processing.
	for i := 1; i < len(res.Open); i++ {
		if !res.Open[i-1].Less(res.Open[i]) {
			t.Fatal("open list not sorted")
		}
	}
}

func TestScanEmptyAndInvalid(t *testing.T) {
	clk := netsim.NewSimClock(time.Unix(0, 0))
	f := netsim.New(clk)
	res, err := Scan(f.Vantage("t"), Config{Port: 22})
	if err != nil || res.Total() != 0 {
		t.Errorf("empty scan: %v %+v", err, res)
	}
	if _, err := Scan(f.Vantage("t"), Config{Targets: []netip.Addr{netip.MustParseAddr("10.0.0.1")}}); err == nil {
		t.Error("port 0: want error")
	}
}

func TestRateLimiterAdvancesSimClock(t *testing.T) {
	clk := netsim.NewSimClock(time.Unix(0, 0))
	l := NewLimiter(clk, 100, 1) // 100 pps, burst 1
	start := clk.Now()
	for i := 0; i < 101; i++ {
		l.Acquire()
	}
	elapsed := clk.Now().Sub(start)
	// 101 probes at 100 pps with burst 1: ~1 simulated second.
	if elapsed < 900*time.Millisecond || elapsed > 1100*time.Millisecond {
		t.Errorf("simulated elapsed = %v, want ~1s", elapsed)
	}
}

func TestUnlimitedLimiterIsFree(t *testing.T) {
	clk := netsim.NewSimClock(time.Unix(0, 0))
	l := NewLimiter(clk, 0, 1)
	for i := 0; i < 10000; i++ {
		l.Acquire()
	}
	if clk.Now() != time.Unix(0, 0) {
		t.Error("unlimited limiter advanced the clock")
	}
}

func TestRealClockLimiterSleeps(t *testing.T) {
	// Against the wall clock the limiter must actually pace: 1000 pps with
	// burst 1 means ~1ms between acquisitions.
	l := NewLimiter(netsim.RealClock{}, 1000, 1)
	start := time.Now()
	for i := 0; i < 20; i++ {
		l.Acquire()
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("20 tokens at 1000pps took only %v", elapsed)
	}
}

func TestLimiterBurstAllowsInitialRush(t *testing.T) {
	clk := netsim.NewSimClock(time.Unix(0, 0))
	l := NewLimiter(clk, 10, 50)
	for i := 0; i < 50; i++ {
		l.Acquire()
	}
	if clk.Now() != time.Unix(0, 0) {
		t.Error("burst tokens should not consume simulated time")
	}
	l.Acquire() // the 51st must wait
	if clk.Now() == time.Unix(0, 0) {
		t.Error("post-burst acquisition did not advance the clock")
	}
}
