package resolver

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/xrand"
)

// determinismCorpus builds a deterministic observation corpus shaped like a
// real measurement round: shared identifiers (alias sets), duplicates, both
// families, all three protocols.
func determinismCorpus(seed uint64, n int) []alias.Observation {
	rng := xrand.NewSplitMix64(seed)
	obs := make([]alias.Observation, 0, n)
	for i := 0; i < n; i++ {
		id := ident.Identifier{
			Proto:  ident.Protocol(rng.Intn(3)),
			Digest: fmt.Sprintf("id-%04d", rng.Intn(n/5+1)),
		}
		var addr netip.Addr
		if rng.Intn(4) == 0 {
			addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, byte(rng.Intn(9)), 0, 0, byte(rng.Intn(250)), byte(rng.Intn(250))})
		} else {
			addr = netip.AddrFrom4([4]byte{203, 0, byte(113 + rng.Intn(5)), byte(rng.Intn(250))})
		}
		obs = append(obs, alias.Observation{Addr: addr, ID: id})
	}
	obs = append(obs, obs[0], obs[len(obs)/2]) // duplicates must collapse
	return obs
}

// protoObs filters a corpus to one protocol, preserving order.
func protoObs(obs []alias.Observation, p ident.Protocol) []alias.Observation {
	var out []alias.Observation
	for _, o := range obs {
		if o.ID.Proto == p {
			out = append(out, o)
		}
	}
	return out
}

// TestGroupBackendsMatchSortReference is the determinism gate for the
// merge-as-you-go grouping: on the same corpus, the retired global-sort
// implementation (alias.GroupSorted) and the session's Sets must produce
// byte-identical alias sets per protocol, across two seeds, whether the
// session is fed in corpus order or in reverse.
func TestGroupBackendsMatchSortReference(t *testing.T) {
	for _, seed := range []uint64{5, 91} {
		obs := determinismCorpus(seed, 5000)
		reversed := slices.Clone(obs)
		slices.Reverse(reversed)
		for order, feed := range map[string][]alias.Observation{"forward": obs, "reverse": reversed} {
			s := NewSession()
			for _, o := range feed {
				s.Observe(o)
			}
			for _, p := range ident.Protocols {
				want := alias.GroupSorted(protoObs(obs, p))
				requireSameSets(t, fmt.Sprintf("seed %d %s proto %s", seed, order, p), want, s.Sets(p))
			}
		}
	}
}

// TestMergeBackendsAgreeOnGroupedCorpus closes the loop: the partitions the
// group core emits must merge through the session exactly as alias.Merge
// merges them.
func TestMergeBackendsAgreeOnGroupedCorpus(t *testing.T) {
	obs := determinismCorpus(13, 3000)
	half := len(obs) / 2
	a, b := alias.Group(obs[:half]), alias.Group(obs[half:])
	requireSameSets(t, "merge", alias.Merge(a, b), NewSession().Merged(a, b))
}

// TestBatchSetsPoolReuse hammers one session's Sets from concurrent
// goroutines: snapshots must never leak state between calls (run under
// -race this is also the per-protocol lock's concurrency proof).
func TestBatchSetsPoolReuse(t *testing.T) {
	s := NewSession()
	obs := determinismCorpus(29, 2000)
	for _, o := range obs {
		s.Observe(o)
	}
	want := strings.Join(keysOf(alias.GroupSorted(protoObs(obs, ident.SSH))), "|")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := strings.Join(keysOf(s.Sets(ident.SSH)), "|"); got != want {
					t.Errorf("concurrent snapshot %d differs from the reference grouping", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
