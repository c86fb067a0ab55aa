package scenario

import (
	"fmt"
	"testing"

	"aliaslimit/internal/resolver"
)

// liveBatch is the batch backend marked live-feeding, registered as "live"
// for this package's tests so every backend-equivalence test also drives the
// live collection feed (EnvSeries.Advance's live sessions, sealStreamed's
// no-feed branch) without worker processes.
type liveBatch struct{ resolver.Backend }

func (liveBatch) Name() string   { return "live" }
func (liveBatch) FeedLive() bool { return true }

func init() {
	resolver.Register("live", func(int) resolver.Backend { return liveBatch{resolver.NewBatch()} })
}

// TestBackendEquivalenceOnPresets is the backend-equivalence property test:
// on the calm baseline and the adversarial churn-storm worlds, at two seeds
// and with both sequential and fully pipelined collection, every backend —
// batch, distributed, and the live-feeding batch — must produce
// byte-identical alias sets, asserted through the SetsDigest each scorecard
// carries. CI runs this under -race, which also exercises the live sink's
// concurrent feed.
func TestBackendEquivalenceOnPresets(t *testing.T) {
	type key struct {
		preset string
		seed   uint64
	}
	distinct := map[key]string{}
	for _, preset := range []string{"baseline", "churn-storm"} {
		for _, seed := range []uint64{1, 7} {
			for _, par := range []int{1, 0} {
				workers := 32
				if par == 0 {
					workers = 0
				}
				var ref *Result
				for _, backend := range BackendNames() {
					res, err := Run(preset, Options{
						Seed: seed, Scale: 0.04,
						Workers: workers, Parallelism: par,
						Backend: backend,
					})
					if err != nil {
						t.Fatalf("%s seed=%d par=%d backend=%s: %v", preset, seed, par, backend, err)
					}
					if res.Backend != backend {
						t.Fatalf("result labelled backend %q, want %q", res.Backend, backend)
					}
					if res.SetsDigest == "" {
						t.Fatalf("%s backend=%s: empty sets digest", preset, backend)
					}
					if ref == nil {
						ref = res
						continue
					}
					if res.SetsDigest != ref.SetsDigest {
						t.Errorf("%s seed=%d par=%d: backend %s alias sets diverge from %s (digest %s vs %s)",
							preset, seed, par, backend, ref.Backend, res.SetsDigest, ref.SetsDigest)
					}
					// The whole scorecard, not just the sets, must agree.
					if fmt.Sprint(res.Protocols) != fmt.Sprint(ref.Protocols) ||
						res.UnionSetsV4 != ref.UnionSetsV4 ||
						res.UnionSetsV6 != ref.UnionSetsV6 ||
						res.DualStackSets != ref.DualStackSets ||
						res.MIDAR != ref.MIDAR {
						t.Errorf("%s seed=%d par=%d: backend %s scorecard diverges from %s",
							preset, seed, par, backend, ref.Backend)
					}
				}
				k := key{preset, seed}
				if prev, ok := distinct[k]; ok {
					if prev != ref.SetsDigest {
						t.Errorf("%s seed=%d: digest changed across Parallelism settings", preset, seed)
					}
				} else {
					distinct[k] = ref.SetsDigest
				}
			}
		}
	}
	// Different worlds must not hash alike — a vacuous digest would pass the
	// equality checks above.
	seen := map[string]key{}
	for k, d := range distinct {
		if prev, dup := seen[d]; dup {
			t.Errorf("worlds %+v and %+v share a sets digest", prev, k)
		}
		seen[d] = k
	}
}

// TestLongitudinalBackendEquivalence runs a short churn-storm series on every
// backend and requires byte-identical per-epoch alias sets and merge-strategy
// scores.
func TestLongitudinalBackendEquivalence(t *testing.T) {
	var ref *LongitudinalResult
	for _, backend := range BackendNames() {
		opts := longOpts
		opts.Backend = backend
		r, err := RunLongitudinal("churn-storm", opts)
		if err != nil {
			t.Fatalf("backend %s: %v", backend, err)
		}
		if r.Backend != backend {
			t.Fatalf("result labelled backend %q, want %q", r.Backend, backend)
		}
		if ref == nil {
			ref = r
			continue
		}
		for i, e := range r.Epochs {
			if e.SetsDigest != ref.Epochs[i].SetsDigest {
				t.Errorf("backend %s epoch %d alias sets diverge from %s",
					backend, i, ref.Backend)
			}
		}
		if len(r.Merges) != len(ref.Merges) {
			t.Fatalf("backend %s has %d merge strategies, want %d", backend, len(r.Merges), len(ref.Merges))
		}
		for i := range r.Merges {
			if *r.Merges[i] != *ref.Merges[i] {
				t.Errorf("backend %s merge strategy %s diverges from %s",
					backend, r.Merges[i].Strategy, ref.Backend)
			}
		}
	}
}

// TestMegascaleBackendEquivalence pins the zero-alloc rewrite's byte-identity
// guarantee on the throughput presets: megascale and megascale-x10 (scaled
// down to CI-sized worlds — the preset's knobs, not its full scale) must
// produce identical alias-set digests across every backend.
func TestMegascaleBackendEquivalence(t *testing.T) {
	for _, tc := range []struct {
		preset string
		scale  float64
	}{
		{"megascale", 0.06},
		{"megascale-x10", 0.1},
	} {
		var ref *Result
		for _, backend := range BackendNames() {
			res, err := Run(tc.preset, Options{
				Seed: 1, Scale: tc.scale, Workers: 16, Backend: backend,
			})
			if err != nil {
				t.Fatalf("%s backend=%s: %v", tc.preset, backend, err)
			}
			if res.SetsDigest == "" {
				t.Fatalf("%s backend=%s: empty sets digest", tc.preset, backend)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.SetsDigest != ref.SetsDigest {
				t.Errorf("%s: backend %s alias sets diverge from %s (digest %s vs %s)",
					tc.preset, backend, ref.Backend, res.SetsDigest, ref.SetsDigest)
			}
		}
	}
}
