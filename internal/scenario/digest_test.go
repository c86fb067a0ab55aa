package scenario

import (
	"fmt"
	"testing"
)

// TestParallelismEquivalenceOnPresets is the collection-concurrency property
// test: on the calm baseline and the adversarial churn-storm worlds, at two
// seeds, sequential and fully pipelined collection must produce the same
// scorecard — alias sets (through the SetsDigest), scores, yields and MIDAR
// tally. CI runs this under -race, which also exercises the concurrent scan
// sinks.
func TestParallelismEquivalenceOnPresets(t *testing.T) {
	type key struct {
		preset string
		seed   uint64
	}
	distinct := map[key]string{}
	for _, preset := range []string{"baseline", "churn-storm"} {
		for _, seed := range []uint64{1, 7} {
			var ref *Result
			for _, par := range []int{1, 0} {
				workers := 32
				if par == 0 {
					workers = 0
				}
				res, err := Run(preset, Options{
					Seed: seed, Scale: 0.04,
					Workers: workers, Parallelism: par,
				})
				if err != nil {
					t.Fatalf("%s seed=%d par=%d: %v", preset, seed, par, err)
				}
				if res.Backend != "batch" {
					t.Fatalf("result labelled backend %q, want batch", res.Backend)
				}
				if res.SetsDigest == "" {
					t.Fatalf("%s seed=%d par=%d: empty sets digest", preset, seed, par)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.SetsDigest != ref.SetsDigest {
					t.Errorf("%s seed=%d: digest changed across Parallelism settings (%s vs %s)",
						preset, seed, res.SetsDigest, ref.SetsDigest)
				}
				// The whole scorecard, not just the sets, must agree.
				if fmt.Sprint(res.Protocols) != fmt.Sprint(ref.Protocols) ||
					res.UnionSetsV4 != ref.UnionSetsV4 ||
					res.UnionSetsV6 != ref.UnionSetsV6 ||
					res.DualStackSets != ref.DualStackSets ||
					res.MIDAR != ref.MIDAR {
					t.Errorf("%s seed=%d: scorecard changed across Parallelism settings", preset, seed)
				}
			}
			distinct[key{preset, seed}] = ref.SetsDigest
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

// TestMegascalePinnedDigests pins the alias sets of the throughput presets
// byte for byte: megascale and megascale-x10, scaled down to CI-sized worlds
// (the preset's knobs, not its full scale), must reproduce these sets
// digests. A change that moves them changes the resolver's output.
func TestMegascalePinnedDigests(t *testing.T) {
	for _, tc := range []struct {
		preset string
		scale  float64
		digest string
	}{
		{"megascale", 0.06, "174a1d5dde3721161d712d4cb78c678c623868fdd5d7abd0c507bf3b0fca3bea"},
		{"megascale-x10", 0.1, "cfd4f7b4a04bf5b02621cd203091e4b94ee2c7e7f7bfce4ab0e63221255049aa"},
	} {
		res, err := Run(tc.preset, Options{Seed: 1, Scale: tc.scale, Workers: 16})
		if err != nil {
			t.Fatalf("%s: %v", tc.preset, err)
		}
		if res.SetsDigest != tc.digest {
			t.Errorf("%s at scale %v: sets digest %s, pinned %s", tc.preset, tc.scale, res.SetsDigest, tc.digest)
		}
	}
}
