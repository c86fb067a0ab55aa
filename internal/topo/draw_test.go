package topo

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/netip"
	"testing"

	"aliaslimit/internal/xrand"
)

// The generator's draws used to build a fresh key slice per draw, led by
// fmt.Sprint(seed). The ref* helpers below keep that recipe as the
// reference: every world, golden and digest rests on its bits, so the
// Hasher-based draws must reproduce it exactly.

// refKey is the historical draw key: the formatted seed, then the labels.
func refKey(seed uint64, labels ...string) []string {
	return append([]string{fmt.Sprint(seed)}, labels...)
}

func refIntn(n int, keys ...string) int { return int(xrand.Hash64(keys...) % uint64(n)) }

func refExp(mean float64, keys ...string) float64 {
	u := xrand.Prob(keys...)
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

func refZipf(s float64, max int, keys ...string) int {
	if max < 1 {
		return 1
	}
	u := xrand.Prob(keys...)
	hi := math.Pow(float64(max), 1-s)
	k := int(math.Pow(1-u*(1-hi), 1/(1-s)))
	if k < 1 {
		k = 1
	}
	if k > max {
		k = max
	}
	return k
}

// refPickAS is pickAS drawing from the historical key.
func refPickAS(ases []*AS, kind ASKind, keys ...string) *AS {
	var total float64
	for _, a := range ases {
		if a.Kind == kind {
			total += a.Weight
		}
	}
	x := xrand.Prob(keys...) * total
	for _, a := range ases {
		if a.Kind != kind {
			continue
		}
		x -= a.Weight
		if x <= 0 {
			return a
		}
	}
	for i := len(ases) - 1; i >= 0; i-- {
		if ases[i].Kind == kind {
			return ases[i]
		}
	}
	return nil
}

// refSeedBytes is the first n bytes of the historical host-key seed reader.
func refSeedBytes(t *testing.T, n int, keys ...string) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(seedReader{s: xrand.NewSplitMix64(xrand.Hash64(keys...))}, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// drawSeeds are the edge seeds plus the three worlds perfbench measures at
// run seed 1.
func drawSeeds() []uint64 {
	seeds := []uint64{0, 1, 1 << 63, math.MaxUint64}
	for w := 0; w < 3; w++ {
		seeds = append(seeds, xrand.NewSplitMix64(1).Fork(fmt.Sprintf("world-%d", w)).Uint64())
	}
	return seeds
}

// drawLabels are one-label and multi-label keys in the shapes the generator
// uses.
var drawLabels = [][]string{
	{""},
	{"srv-0"},
	{"fleet-14061-1"},
	{"rtr-9", "ipid"},
	{"mssh-12", "size-hi"},
	{"bgpm-3", "nb-as", "4"},
	{"srv-7-ren2-1.0.0.9", "hostkey", "x"},
}

// TestGeneratorDrawsMatchReference holds every Hasher-based generator draw
// to the historical fmt.Sprint-keyed recipe, bit for bit.
func TestGeneratorDrawsMatchReference(t *testing.T) {
	ases := buildASes(Default())
	addrs := []netip.Addr{
		netip.MustParseAddr("1.0.0.1"),
		netip.MustParseAddr("1.2.3.255"),
		netip.MustParseAddr("2a00:7::1"),
		netip.MustParseAddr("2a00:7f:0:0:100::ff"),
	}
	for _, seed := range drawSeeds() {
		g := newGenerator(nil, Config{Seed: seed})
		for _, labels := range drawLabels {
			ref := refKey(seed, labels...)
			if got, want := g.prob(labels...), xrand.Prob(ref...); got != want {
				t.Fatalf("seed %d %q: prob = %v, want %v", seed, labels, got, want)
			}
			for _, n := range []int{1, 2, 7, 8000, 10_000_000} {
				if got, want := g.intn(n, labels...), refIntn(n, ref...); got != want {
					t.Fatalf("seed %d %q: intn(%d) = %d, want %d", seed, labels, n, got, want)
				}
			}
			if got, want := g.key(labels...).Sum64(), xrand.Hash64(ref...); got != want {
				t.Fatalf("seed %d %q: Sum64 = %d, want %d", seed, labels, got, want)
			}
			for _, mean := range []float64{40, 60, 100000} {
				if got, want := g.key(labels...).Exp(mean), refExp(mean, ref...); got != want {
					t.Fatalf("seed %d %q: Exp(%v) = %v, want %v", seed, labels, mean, got, want)
				}
			}
			for _, z := range []struct {
				s   float64
				max int
			}{{1.5, 89}, {1.3, 300}, {1.4, 69}, {1.3, 220}, {1.5, 48}, {1.3, 190}, {1.4, 20}, {1.5, 0}} {
				if got, want := g.key(labels...).Zipf(z.s, z.max), refZipf(z.s, z.max, ref...); got != want {
					t.Fatalf("seed %d %q: Zipf(%v, %d) = %d, want %d", seed, labels, z.s, z.max, got, want)
				}
			}
			for _, kind := range []ASKind{KindCloud, KindISP, KindEnterprise} {
				if got, want := pickAS(ases, kind, g.key(labels...)), refPickAS(ases, kind, ref...); got != want {
					t.Fatalf("seed %d %q: pickAS(%v) = AS%d, want AS%d", seed, labels, kind, got.ASN, want.ASN)
				}
			}
			got := make([]byte, 64)
			if _, err := io.ReadFull(g.newSeedReader(labels...), got); err != nil {
				t.Fatal(err)
			}
			if want := refSeedBytes(t, 64, ref...); !bytes.Equal(got, want) {
				t.Fatalf("seed %d %q: seed reader starts %x, want %x", seed, labels, got, want)
			}
			for _, i := range []int{0, 1, 7, 12345} {
				if got, want := nth(g.key(labels...), i).Prob(), xrand.Prob(append(ref, fmt.Sprint(i))...); got != want {
					t.Fatalf("seed %d %q: nth(%d) draw = %v, want %v", seed, labels, i, got, want)
				}
			}
			for _, a := range addrs {
				k := g.key(labels...)
				k.KeyAddr(a)
				if got, want := k.Prob(), xrand.Prob(append(ref, a.String())...); got != want {
					t.Fatalf("seed %d %q: %s draw = %v, want %v", seed, labels, a, got, want)
				}
			}
		}
	}
}

// TestASTailWeightsMatchReference holds the synthetic tail's AS weights,
// whose keys carry no seed, to the historical recipe.
func TestASTailWeightsMatchReference(t *testing.T) {
	mean := map[ASKind]float64{KindCloud: 0.5, KindISP: 0.8, KindEnterprise: 0.5}
	tails := 0
	for _, a := range buildASes(Default()) {
		var i int
		if _, err := fmt.Sscanf(a.Name, a.Kind.String()+"-tail-%d", &i); err != nil {
			continue
		}
		tails++
		want := mean[a.Kind] * float64(refZipf(1.4, 20, "as-weight", a.Kind.String(), fmt.Sprint(i))) / 4
		if a.Weight != want {
			t.Errorf("%s weight = %v, want %v", a.Name, a.Weight, want)
		}
	}
	if tails != 18+60+50 {
		t.Fatalf("found %d tail ASes, want 128", tails)
	}
}

// raceEnabled is set by race_test.go: the race detector's instrumentation
// shifts allocation counts, so the check below holds only without it.
var raceEnabled bool

// TestGeneratorDrawsAllocateNothing pins the point of the Hasher path: a
// generator's prob, intn, Exp- and Zipf-shaped draws, an AS pick and an
// indexed or address-keyed draw allocate nothing.
func TestGeneratorDrawsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g := newGenerator(nil, Config{Seed: 7})
	ases := buildASes(Default())
	id, a := "mssh-17", netip.MustParseAddr("2a00:7::1")
	var sinkF float64
	var sinkI int
	allocs := testing.AllocsPerRun(100, func() {
		sinkF += g.prob(id, "ipid")
		sinkI += g.intn(7, id, "size-mid")
		sinkF += g.key(id, "vel").Exp(40)
		sinkI += g.key(id, "size-hi").Zipf(1.5, 89)
		sinkI += int(pickAS(ases, KindCloud, g.key(id, "as")).ASN)
		sinkF += nth(g.key(id, "flt-vp"), 3).Prob()
		k := g.key(id, "ptr-cov")
		k.KeyAddr(a)
		sinkF += k.Prob()
	})
	if allocs != 0 {
		t.Errorf("generator draws allocate %.1f times per run, want 0", allocs)
	}
	_, _ = sinkF, sinkI
}
