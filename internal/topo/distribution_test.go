package topo

import (
	"fmt"
	"testing"

	"aliaslimit/internal/netsim"
)

// These tests pin the calibrated population distributions: if a future
// refactor drifts the generators, the experiment tables silently stop
// matching the paper, so the distributions get their own regression tests.

func statsOver(n int, draw func(id string) int) (mean float64, frac2 float64) {
	total, twos := 0, 0
	for i := 0; i < n; i++ {
		v := draw(fmt.Sprintf("dist-test-%d", i))
		total += v
		if v == 2 {
			twos++
		}
	}
	return float64(total) / float64(n), float64(twos) / float64(n)
}

func newGen(t *testing.T) *generator {
	t.Helper()
	cfg := Default()
	w, err := Build(Config{Seed: 1, Scale: 0.001, SingleSSHServers: 1, MultiSSHHosts: 1,
		SNMPSingleDevices: 1, SNMPRouters: 1, BGPSilent: 1, BGPSingleSpeakers: 1,
		BGPMultiRouters: 1, HitlistCoverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	return newGenerator(w, cfg)
}

func TestMultiSSHSizeDistribution(t *testing.T) {
	g := newGen(t)
	mean, frac2 := statsOver(4000, g.multiSSHSize)
	// Paper Figure 3: >60% of SSH sets have exactly two addresses; Table 3:
	// mean ≈ 6 addrs/set.
	if frac2 < 0.58 || frac2 > 0.70 {
		t.Errorf("P(size=2) = %.2f, want ~0.63", frac2)
	}
	if mean < 4.5 || mean > 9 {
		t.Errorf("mean size = %.1f, want ~6-7", mean)
	}
}

func TestSNMPRouterSizeDistribution(t *testing.T) {
	g := newGen(t)
	mean, frac2 := statsOver(4000, g.snmpRouterSize)
	// Paper: <30% two-address sets, mean ≈ 11 addrs/set.
	if frac2 < 0.20 || frac2 > 0.32 {
		t.Errorf("P(size=2) = %.2f, want ~0.26", frac2)
	}
	if mean < 8 || mean > 15 {
		t.Errorf("mean size = %.1f, want ~11", mean)
	}
}

func TestBGPMultiSizeDistribution(t *testing.T) {
	g := newGen(t)
	mean, frac2 := statsOver(4000, g.bgpMultiSize)
	// Paper: BGP sets are larger; 175k addrs over 12k sets ≈ 14.6.
	if frac2 < 0.18 || frac2 > 0.32 {
		t.Errorf("P(size=2) = %.2f, want ~0.25", frac2)
	}
	if mean < 10 || mean > 18 {
		t.Errorf("mean size = %.1f, want ~14", mean)
	}
}

func TestServerIPIDMix(t *testing.T) {
	g := newGen(t)
	counts := map[netsim.IPIDModel]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		counts[g.ipidForServer(fmt.Sprintf("srv-ipid-%d", i)).model]++
	}
	frac := func(m netsim.IPIDModel) float64 { return float64(counts[m]) / n }
	if f := frac(netsim.IPIDRandom); f < 0.45 || f > 0.55 {
		t.Errorf("random fraction %.2f, want ~0.50", f)
	}
	if f := frac(netsim.IPIDSharedMonotonic); f < 0.15 || f > 0.25 {
		t.Errorf("shared fraction %.2f, want ~0.20 (drives MIDAR's 13%% verifiable)", f)
	}
	if f := frac(netsim.IPIDPerInterface); f > 0.01 {
		t.Errorf("per-interface fraction %.3f, want ~0.002", f)
	}
}

func TestRouterIPIDMix(t *testing.T) {
	g := newGen(t)
	counts := map[netsim.IPIDModel]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		counts[g.ipidForRouter(fmt.Sprintf("rtr-ipid-%d", i)).model]++
	}
	for _, m := range []netsim.IPIDModel{
		netsim.IPIDSharedMonotonic, netsim.IPIDPerInterface,
		netsim.IPIDRandom, netsim.IPIDZero, netsim.IPIDHighVelocity,
	} {
		if counts[m] == 0 {
			t.Errorf("router IPID mix missing model %v", m)
		}
	}
}

func TestFilteredVantagesIncludesAux(t *testing.T) {
	g := newGen(t)
	sawAux := false
	sawActive := false
	for i := 0; i < 500; i++ {
		for _, label := range g.filteredVantages(fmt.Sprintf("fv-%d", i), 0.3, 0.1) {
			if label == VantageActive {
				sawActive = true
			}
			if label == AuxVantage(0) || label == AuxVantage(3) {
				sawAux = true
			}
		}
	}
	if !sawActive || !sawAux {
		t.Errorf("vantage filtering degenerate: active=%v aux=%v", sawActive, sawAux)
	}
	if AuxVantage(2) != "vp2" {
		t.Errorf("AuxVantage(2) = %q", AuxVantage(2))
	}
}

func TestBrokenSSHHandlerStaysOutOfTruth(t *testing.T) {
	cfg := Default()
	cfg.Scale = 0.02
	cfg.Seed = 23
	cfg.PBrokenSSH = 0.5
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every single-server device in truth must genuinely speak SSH; broken
	// ones must be absent. Count devices with port 22 bound vs truth.
	bound, inTruth := 0, 0
	for i := 0; ; i++ {
		d := w.Fabric.Device(fmt.Sprintf("srv-%d", i))
		if d == nil {
			break
		}
		if len(d.ServiceAddrs(22)) > 0 {
			bound++
			if len(w.Truth.SSHAddrs[d.ID()]) > 0 {
				inTruth++
			}
		}
	}
	if bound == 0 {
		t.Fatal("no servers found")
	}
	if inTruth >= bound {
		t.Errorf("no broken servers at PBrokenSSH=0.5: bound=%d truth=%d", bound, inTruth)
	}
	if inTruth == 0 {
		t.Error("all servers broken — probability misapplied")
	}
}
