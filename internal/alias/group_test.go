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
