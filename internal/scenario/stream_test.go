package scenario

import (
	"strings"
	"testing"

	"aliaslimit/internal/experiments"
	"aliaslimit/internal/obslog"
)

// TestStreamCollectMatchesInRAMOnPresets is the out-of-core byte-identity
// gate across the catalog: for every preset (scaled down to a CI-sized
// world — the preset's knobs, not its full scale), the streamed run's
// scorecard must be identical to the in-RAM run's, sets digest and all.
// StreamOnly presets compare against an in-RAM run with the gate lifted —
// the gate is a memory policy, not a semantic difference.
func TestStreamCollectMatchesInRAMOnPresets(t *testing.T) {
	for _, p := range Presets() {
		inRAM := p
		inRAM.StreamOnly = false
		opts := Options{Seed: 1, Scale: 0.04}
		ref, err := runPreset(inRAM, opts)
		if err != nil {
			t.Fatalf("%s in-RAM: %v", p.Name, err)
		}
		opts.StreamCollect = true
		res, err := runPreset(p, opts)
		if err != nil {
			t.Fatalf("%s streamed: %v", p.Name, err)
		}
		if res.SetsDigest == "" || res.SetsDigest != ref.SetsDigest {
			t.Errorf("%s: streamed sets digest %s, in-RAM %s (first divergence: %s)",
				p.Name, res.SetsDigest, ref.SetsDigest,
				firstDivergence(res.PartitionDigests, ref.PartitionDigests))
		}
		if res.V4Addresses != ref.V4Addresses || res.V6Addresses != ref.V6Addresses {
			t.Errorf("%s: streamed address universe %d/%d, in-RAM %d/%d",
				p.Name, res.V4Addresses, res.V6Addresses, ref.V4Addresses, ref.V6Addresses)
		}
		// The whole scorecard agrees, not just the hashed partitions — the
		// coverage counts come from the replay-derived address universes and
		// the non-standard-port count from the counting sink.
		if res.RenderText() != ref.RenderText() {
			t.Errorf("%s: streamed scorecard diverges from in-RAM:\n%s\nvs\n%s",
				p.Name, res.RenderText(), ref.RenderText())
		}
	}
}

// TestStreamOnlyGate pins megascale-x100's contract: it refuses to run
// in-RAM with an actionable error, and runs streamed (at a CI-sized scale
// override here — the world knobs, not the full Scale 100) to a pinned sets
// digest. It is the one preset that runs only streamed, so the pin is the
// streamed read path's committed reference.
func TestStreamOnlyGate(t *testing.T) {
	_, err := Run("megascale-x100", Options{Seed: 1, Scale: 0.04})
	if err == nil || !strings.Contains(err.Error(), "-stream-collect") {
		t.Fatalf("in-RAM megascale-x100 = %v, want a -stream-collect error", err)
	}
	res, err := Run("megascale-x100", Options{Seed: 1, Scale: 0.04, StreamCollect: true})
	if err != nil {
		t.Fatalf("streamed megascale-x100: %v", err)
	}
	const pinned = "99d641bfbc7861ea69b11c26e7e531978c04450c426985b4bfcb72852b396889"
	if res.SetsDigest != pinned {
		t.Fatalf("streamed megascale-x100 at scale 0.04: sets digest %s, pinned %s", res.SetsDigest, pinned)
	}
}

// TestStreamCollectLongitudinal runs a short churn-storm series out-of-core
// and requires per-epoch byte-identity with the in-RAM series — including
// the persistence/survival/merge metrics, which iterate observations
// through the log-backed EachObs instead of in-RAM slices.
func TestStreamCollectLongitudinal(t *testing.T) {
	ref := longTiny(t, "churn-storm")
	opts := longOpts
	opts.StreamCollect = true
	r, err := RunLongitudinal("churn-storm", opts)
	if err != nil {
		t.Fatalf("streamed longitudinal: %v", err)
	}
	for i, e := range r.Epochs {
		if e.SetsDigest != ref.Epochs[i].SetsDigest {
			t.Errorf("epoch %d: streamed alias sets diverge from in-RAM", i)
		}
	}
	for i := range r.Merges {
		if *r.Merges[i] != *ref.Merges[i] {
			t.Errorf("merge strategy %s diverges from in-RAM", r.Merges[i].Strategy)
		}
	}
	for i := range r.Persistence {
		if r.Persistence[i].Mean != ref.Persistence[i].Mean {
			t.Errorf("persistence %s diverges from in-RAM", r.Persistence[i].Protocol)
		}
	}
}

// TestStreamCollectWithLogDir proves the durable log doubles as the stream
// spill: a streamed run under LogDir yields the in-RAM digest, and the log
// it leaves behind replays to the same digest (the crash-resume property,
// now fed by the collection path itself).
func TestStreamCollectWithLogDir(t *testing.T) {
	ref, err := Run("baseline", Options{Seed: 3, Scale: 0.04})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/log"
	res, err := Run("baseline", Options{
		Seed: 3, Scale: 0.04,
		StreamCollect: true, LogDir: dir,
	})
	if err != nil {
		t.Fatalf("streamed durable run: %v", err)
	}
	if res.SetsDigest != ref.SetsDigest {
		t.Errorf("streamed durable digest %s, in-RAM %s", res.SetsDigest, ref.SetsDigest)
	}
	snap, err := obslog.Replay(dir, 0)
	if err != nil {
		t.Fatalf("replaying the stream-collected log: %v", err)
	}
	env, err := experiments.ReplayEnv(snap)
	if err != nil {
		t.Fatalf("rebuilding datasets from the log: %v", err)
	}
	defer env.Close()
	digest, _ := DigestPartitions(ScoredPartitions(env))
	if digest != ref.SetsDigest {
		t.Errorf("log replay digest %s, in-RAM %s", digest, ref.SetsDigest)
	}
}
