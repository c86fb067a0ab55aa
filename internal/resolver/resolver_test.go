package resolver

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/xrand"
)

// corpus builds a deterministic synthetic observation stream: identifiers
// shared across several addresses, addresses claimed by several identifiers,
// duplicates, and a v4/v6 mix — every structural case the pipeline produces.
func corpus(seed uint64, n int) []alias.Observation {
	obs := make([]alias.Observation, 0, n)
	sk := fmt.Sprint(seed)
	for i := 0; i < n; i++ {
		ik := fmt.Sprint(i)
		id := ident.Identifier{
			Proto:  ident.SSH,
			Digest: fmt.Sprintf("d%04d", xrand.Hash64(sk, "id", ik)%uint64(n/4+1)),
		}
		var addr netip.Addr
		ai := xrand.Hash64(sk, "addr", ik) % uint64(n/3+1)
		if ai%5 == 0 {
			addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 15: byte(ai)}).
				WithZone("")
		} else {
			addr = netip.AddrFrom4([4]byte{10, byte(ai >> 16), byte(ai >> 8), byte(ai)})
		}
		obs = append(obs, alias.Observation{Addr: addr, ID: id})
	}
	return obs
}

// keysOf renders a partition as its canonical key sequence.
func keysOf(sets []alias.Set) []string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = string(s.Key())
	}
	return out
}

// requireSameSets fails unless the two partitions are byte-identical.
func requireSameSets(t *testing.T, label string, want, got []alias.Set) {
	t.Helper()
	wk, gk := keysOf(want), keysOf(got)
	if len(wk) != len(gk) {
		t.Fatalf("%s: %d sets, want %d", label, len(gk), len(wk))
	}
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("%s: set %d differs:\nwant %q\ngot  %q", label, i, want[i].Signature(), got[i].Signature())
		}
	}
}

// TestSessionGroupEquivalence: the session groups observations into alias
// sets byte-identical to alias.Group, at two seeds.
func TestSessionGroupEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		obs := corpus(seed, 3000)
		s := NewSession()
		for _, o := range obs {
			s.Observe(o)
		}
		requireSameSets(t, fmt.Sprintf("seed %d", seed), alias.Group(obs), s.Sets(ident.SSH))
	}
}

// TestSessionMergeEquivalence: the session merges partitions into components
// byte-identical to alias.Merge, at two seeds, reusing one interning table.
func TestSessionMergeEquivalence(t *testing.T) {
	s := NewSession()
	for _, seed := range []uint64{1, 9} {
		a := alias.Group(corpus(seed, 2000))
		b := alias.Group(corpus(seed+100, 2000))
		c := alias.Group(corpus(seed+200, 500))
		requireSameSets(t, fmt.Sprintf("seed %d", seed), alias.Merge(a, b, c), s.Merged(a, b, c))
	}
}

// TestMergedOrderInsensitive: merging the same partitions in any order or
// granularity yields identical components.
func TestMergedOrderInsensitive(t *testing.T) {
	a := alias.Group(corpus(5, 1500))
	b := alias.Group(corpus(6, 1500))
	s := NewSession()
	want := s.Merged(a, b)
	requireSameSets(t, "reverse", want, s.Merged(b, a))
	oneByOne := make([][]alias.Set, 0, len(a)+1)
	for _, set := range a {
		oneByOne = append(oneByOne, []alias.Set{set})
	}
	requireSameSets(t, "one-by-one", want, s.Merged(append(oneByOne, b)...))
}

// TestSessionConcurrentFeed: observations fed from many goroutines in racing
// order still finalise into the alias.Group partition — the live-collection
// contract every session implementation must honor.
func TestSessionConcurrentFeed(t *testing.T) {
	obs := corpus(3, 4000)
	s := NewSession()
	feedConcurrently(s, obs, 8)
	requireSameSets(t, "concurrent feed", alias.Group(obs), s.Sets(ident.SSH))
}

// feedConcurrently splits obs across feeders goroutines that Observe into s
// at once, and returns when all have finished.
func feedConcurrently(s Session, obs []alias.Observation, feeders int) {
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := f; i < len(obs); i += feeders {
				s.Observe(obs[i])
			}
		}(f)
	}
	wg.Wait()
}

// TestSessionRoutesPerProtocol: observations land in their identifier's
// protocol, and Sets of an unfed protocol is empty.
func TestSessionRoutesPerProtocol(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	s := NewSession()
	s.Observe(alias.Observation{Addr: a, ID: ident.Identifier{Proto: ident.SSH, Digest: "x"}})
	s.Observe(alias.Observation{Addr: a, ID: ident.Identifier{Proto: ident.BGP, Digest: "y"}})
	if n := len(s.Sets(ident.SSH)); n != 1 {
		t.Fatalf("SSH has %d sets, want 1", n)
	}
	if n := len(s.Sets(ident.SNMP)); n != 0 {
		t.Fatalf("SNMP has %d sets, want 0", n)
	}
}

// TestStreamConcurrentFeed: a stream mixing all three protocols, fed from
// many goroutines in racing order, finalises every protocol into its
// reference partition — the per-protocol groupers are independent.
func TestStreamConcurrentFeed(t *testing.T) {
	obs := determinismCorpus(17, 4000)
	s := NewSession()
	feedConcurrently(s, obs, 8)
	for _, p := range ident.Protocols {
		requireSameSets(t, "concurrent stream "+p.String(), alias.GroupSorted(protoObs(obs, p)), s.Sets(p))
	}
}

// TestStreamSnapshotDuringFeed: Sets and NonSingletonSets may interleave
// with Observe — the session-safe contract the resolution daemon relies on.
// Every snapshot is a well-formed partition, and the final snapshots match
// the batch grouping. Run under -race this is also the session's locking
// proof.
func TestStreamSnapshotDuringFeed(t *testing.T) {
	obs := corpus(7, 4000)
	want := alias.Group(obs)
	s := NewSession()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, o := range obs {
			s.Observe(o)
		}
	}()
	// Query mid-ingest: each snapshot must be internally consistent (sorted,
	// canonical) even while observations keep landing.
	for i := 0; i < 50; i++ {
		var sets []alias.Set
		if i%2 == 0 {
			sets = s.Sets(ident.SSH)
		} else {
			sets = s.NonSingletonSets(ident.SSH)
			if slices.ContainsFunc(sets, func(set alias.Set) bool { return set.Size() < 2 }) {
				t.Fatalf("snapshot %d: NonSingletonSets returned a singleton", i)
			}
		}
		sorted := slices.Clone(sets)
		alias.SortSets(sorted)
		requireSameSets(t, fmt.Sprintf("snapshot %d order", i), sorted, sets)
		for _, set := range sets {
			if !slices.IsSortedFunc(set.Addrs, netip.Addr.Compare) || len(slices.Compact(slices.Clone(set.Addrs))) != len(set.Addrs) {
				t.Fatalf("snapshot %d: set %s not sorted and duplicate-free", i, set.Signature())
			}
		}
	}
	<-done
	requireSameSets(t, "final snapshot", want, s.Sets(ident.SSH))
	requireSameSets(t, "final non-singleton snapshot", alias.NonSingleton(want), s.NonSingletonSets(ident.SSH))
}

// TestCompatBackendOpensTheSession: the retired backend API the frozen
// benchmark harness still calls opens working sessions whose sets equal
// NewSession's, so the harness's numbers describe the real resolver.
func TestCompatBackendOpensTheSession(t *testing.T) {
	obs := determinismCorpus(3, 2000)
	ref := NewSession()
	for _, o := range obs {
		ref.Observe(o)
	}
	for name, be := range map[string]Backend{"NewBatch": NewBatch(), "NewStreaming": NewStreaming()} {
		s, err := be.Open(Options{})
		if err != nil || s == nil {
			t.Fatalf("%s().Open = %v, %v", name, s, err)
		}
		for _, o := range obs {
			s.Observe(o)
		}
		for _, p := range ident.Protocols {
			requireSameSets(t, name+" "+p.String(), ref.Sets(p), s.Sets(p))
		}
		a, b := ref.Sets(ident.SSH), ref.Sets(ident.BGP)
		requireSameSets(t, name+" merged", ref.Merged(a, b), s.Merged(a, b))
		if err := s.Close(); err != nil {
			t.Fatalf("%s session Close: %v", name, err)
		}
	}
}

// BenchmarkSessionGroup prices the session's grouping on one synthetic
// corpus.
func BenchmarkSessionGroup(b *testing.B) {
	obs := corpus(1, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSession()
		for _, o := range obs {
			s.Observe(o)
		}
		s.Sets(ident.SSH)
	}
}

// BenchmarkSessionMerge prices the session's cross-partition merge.
func BenchmarkSessionMerge(b *testing.B) {
	g1 := alias.Group(corpus(1, 10000))
	g2 := alias.Group(corpus(2, 10000))
	g3 := alias.Group(corpus(3, 4000))
	s := NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Merged(g1, g2, g3)
	}
}
