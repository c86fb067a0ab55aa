package alias

import (
	"fmt"
	"net/netip"
	"testing"

	"aliaslimit/internal/ident"
	"aliaslimit/internal/xrand"
)

// groupCorpus builds a deterministic observation corpus with duplicate
// observations, shared identifiers, and mixed families — the shapes the
// grouping core must canonicalise.
func groupCorpus(seed uint64, n int) []Observation {
	rng := xrand.NewSplitMix64(seed)
	obs := make([]Observation, 0, n)
	for i := 0; i < n; i++ {
		id := ident.Identifier{
			Proto:  ident.Protocol(rng.Intn(3)),
			Digest: fmt.Sprintf("digest-%03d", rng.Intn(n/4+1)),
		}
		var addr netip.Addr
		if rng.Intn(3) == 0 {
			addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, byte(rng.Intn(7)), byte(rng.Intn(251)), byte(rng.Intn(251))})
		} else {
			addr = netip.AddrFrom4([4]byte{198, 18, byte(rng.Intn(17)), byte(rng.Intn(251))})
		}
		obs = append(obs, Observation{Addr: addr, ID: id})
	}
	// Exact duplicates must collapse.
	if len(obs) > 2 {
		obs = append(obs, obs[0], obs[1], obs[0])
	}
	return obs
}

// sameSets asserts byte-identical canonical output.
func sameSets(t *testing.T, want, got []Set, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d sets, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			t.Fatalf("%s: set %d = %s, want %s", label, i, got[i].Signature(), want[i].Signature())
		}
	}
}

// TestGrouperMatchesSortReference is the differential gate: the
// merge-as-you-go Grouper must be byte-identical to the retired global-sort
// implementation on every corpus, including observation-order permutations,
// and its singleton-skipping snapshot to that reference's non-singleton sets.
func TestGrouperMatchesSortReference(t *testing.T) {
	for _, seed := range []uint64{3, 77} {
		obs := groupCorpus(seed, 4000)
		want := GroupSorted(obs)
		wantNS := NonSingleton(want)
		if len(wantNS) == 0 || len(wantNS) == len(want) {
			t.Fatalf("seed %d: degenerate corpus: %d of %d sets are non-singleton", seed, len(wantNS), len(want))
		}
		sameSets(t, want, Group(obs), fmt.Sprintf("seed %d: Group", seed))

		// Reversed consumption order must not matter.
		var g Grouper
		for i := len(obs) - 1; i >= 0; i-- {
			g.Observe(obs[i])
		}
		sameSets(t, want, g.Sets(), fmt.Sprintf("seed %d: reversed", seed))
		sameSets(t, wantNS, g.NonSingletonSets(), fmt.Sprintf("seed %d: reversed NonSingletonSets", seed))

		// Arena reuse across Reset must not leak earlier state.
		g.Reset()
		for _, o := range obs {
			g.Observe(o)
		}
		sets, _ := g.AppendSets(nil, nil)
		sameSets(t, want, sets, fmt.Sprintf("seed %d: reused arena", seed))
		sameSets(t, wantNS, g.NonSingletonSets(), fmt.Sprintf("seed %d: reused arena NonSingletonSets", seed))
	}
}

// TestGrouperEmpty pins the empty-input contract Group always had.
func TestGrouperEmpty(t *testing.T) {
	if sets := Group(nil); len(sets) != 0 {
		t.Fatalf("Group(nil) = %d sets", len(sets))
	}
	var g Grouper
	if sets := g.Sets(); len(sets) != 0 {
		t.Fatalf("empty grouper Sets() = %d sets", len(sets))
	}
}

// TestGrouperSteadyStateAllocs enforces the megascale hot-path budget: a
// Reset→Observe×N→AppendSets cycle over a stable identifier population must
// stay within 10 allocs/op (the BENCH_baseline.json alloc gate mirrors this
// in CI on the real measured corpus).
func TestGrouperSteadyStateAllocs(t *testing.T) {
	obs := groupCorpus(11, 6000)
	g := NewGrouper()
	var sets []Set
	var backing []netip.Addr
	cycle := func() {
		g.Reset()
		for _, o := range obs {
			g.Observe(o)
		}
		sets, backing = g.AppendSets(sets[:0], backing[:0])
	}
	cycle() // warm the arena
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs > 10 {
		t.Fatalf("steady-state group cycle: %.1f allocs/op, want <= 10", allocs)
	}
	if len(sets) == 0 {
		t.Fatal("cycle produced no sets")
	}
}

// raceEnabled is set by race_test.go: the race detector's instrumentation
// shifts allocation counts, so the first-fill ceiling holds only without
// it.
var raceEnabled bool

// TestGrouperFirstFillAllocs bounds the cost of a fresh grouper's first
// fill: 4,096 distinct identifiers at one address each must take at most 96
// allocations, so new buckets come from slabs, not one array per identifier
// (which takes over 4,096). On Go 1.24 the fill takes 65: about 44 as the
// runtime's map grows the identifier table and 11 as append grows the
// bucket list, then 7 slabs. The first two follow the toolchain's growth
// policies, so the ceiling leaves room for them to change.
func TestGrouperFirstFillAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n = 4096
	obs := make([]Observation, n)
	for i := range obs {
		obs[i] = Observation{
			Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			ID:   ident.Identifier{Proto: ident.SSH, Digest: fmt.Sprintf("id-%04d", i)},
		}
	}
	var g *Grouper
	allocs := testing.AllocsPerRun(10, func() {
		g = new(Grouper)
		for _, o := range obs {
			g.Observe(o)
		}
	})
	if allocs > 96 {
		t.Fatalf("first fill of %d identifiers: %.0f allocs, want <= 96", n, allocs)
	}
	sameSets(t, GroupSorted(obs), g.Sets(), "first fill")
}

// BenchmarkGrouperSteadyState prices the zero-alloc steady-state cycle the
// resolution service runs per measurement round.
func BenchmarkGrouperSteadyState(b *testing.B) {
	obs := groupCorpus(11, 6000)
	g := NewGrouper()
	var sets []Set
	var backing []netip.Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		for _, o := range obs {
			g.Observe(o)
		}
		sets, backing = g.AppendSets(sets[:0], backing[:0])
	}
	b.ReportMetric(float64(len(sets)), "sets")
}

// BenchmarkGroupSortReference prices the retired global-sort path for
// comparison (same corpus, fresh allocations every op — what the hot path
// used to pay).
func BenchmarkGroupSortReference(b *testing.B) {
	obs := groupCorpus(11, 6000)
	b.ReportAllocs()
	b.ResetTimer()
	var sets []Set
	for i := 0; i < b.N; i++ {
		sets = GroupSorted(obs)
	}
	b.ReportMetric(float64(len(sets)), "sets")
}
