package obslog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"aliaslimit/internal/atomicio"
	"aliaslimit/internal/ident"
)

// manifestName is the checkpoint manifest filename inside a log directory.
const manifestName = "MANIFEST.json"

// manifestFormat is the manifest schema version.
const manifestFormat = 1

// RunMeta records the result-affecting parameters of the run that owns a
// log, so a resume can rebuild the exact configuration without the original
// command line. Concurrency knobs (workers, parallelism) are deliberately
// absent: they never affect results, so the resumer is free to pick its
// own. No timestamps either — the manifest must be byte-deterministic for
// the log-diff gate.
type RunMeta struct {
	// Scenario is the preset name ("churn-storm").
	Scenario string `json:"scenario,omitempty"`
	// Seed is the resolved world seed.
	Seed uint64 `json:"seed"`
	// Scale is the resolved world scale actually run.
	Scale float64 `json:"scale"`
	// Quick records whether the run used the preset's quick scale.
	Quick bool `json:"quick,omitempty"`
	// Backend labels the resolver that resolved the run ("batch"); a resume
	// refuses a log that names any other.
	Backend string `json:"backend,omitempty"`
	// Epochs is the planned epoch count (1 for a single-snapshot run).
	Epochs int `json:"epochs"`
	// Decay is the longitudinal decay-weighted merge half-life weight.
	Decay float64 `json:"decay,omitempty"`
}

// EpochRecord is one committed epoch boundary.
type EpochRecord struct {
	// Epoch is the zero-based epoch index.
	Epoch int `json:"epoch"`
	// SetsDigest is the running sets digest of the epoch's sealed
	// environment (empty when the run does not compute one).
	SetsDigest string `json:"sets_digest,omitempty"`
	// DrawState is the world churn draw-state fingerprint
	// (topo.World.ChurnDrawState) at the boundary; resume verifies its
	// churn replay against it before trusting the log.
	DrawState uint64 `json:"draw_state"`
	// Offsets maps shard key ("ssh", "bgp", "snmpv3") to the shard's byte
	// size after this epoch's segment and marker.
	Offsets map[string]int64 `json:"offsets"`
}

// Manifest is the durable checkpoint state of a log directory. It is
// rewritten atomically (temp file + rename) at every epoch boundary, so a
// reader only ever sees a complete, self-consistent checkpoint.
type Manifest struct {
	// Format is the manifest schema version.
	Format int `json:"format"`
	// Meta describes the owning run.
	Meta RunMeta `json:"meta"`
	// EpochsDone counts committed epochs; equals len(Epochs).
	EpochsDone int `json:"epochs_done"`
	// Epochs lists the committed boundaries in order.
	Epochs []EpochRecord `json:"epochs"`
}

// newManifest starts an empty manifest for a fresh run.
func newManifest(meta RunMeta) *Manifest {
	return &Manifest{Format: manifestFormat, Meta: meta, Epochs: []EpochRecord{}}
}

// clone deep-copies the manifest so callers can hold it across writer
// mutations.
func (m *Manifest) clone() Manifest {
	c := *m
	c.Epochs = make([]EpochRecord, len(m.Epochs))
	for i, e := range m.Epochs {
		c.Epochs[i] = e
		c.Epochs[i].Offsets = make(map[string]int64, len(e.Offsets))
		for k, v := range e.Offsets {
			c.Epochs[i].Offsets[k] = v
		}
	}
	return c
}

// write atomically replaces the manifest in dir.
func (m *Manifest) write(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obslog: %w", err)
	}
	return atomicio.WriteFile(filepath.Join(dir, manifestName), append(data, '\n'), 0o644)
}

// ReadManifest loads and validates the checkpoint manifest of a log
// directory. Every committed epoch must record an offset for each of the
// three shards, and each offset must lie at least one epoch marker frame
// past the previous epoch's offset (past the header frame for epoch 0):
// Resume truncates the shards to these offsets, so a manifest that breaks
// the rule is refused before any shard is touched.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("obslog: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obslog: corrupt manifest: %w", err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("obslog: manifest format %d, want %d", m.Format, manifestFormat)
	}
	if m.EpochsDone != len(m.Epochs) {
		return nil, fmt.Errorf("obslog: manifest claims %d epochs but records %d", m.EpochsDone, len(m.Epochs))
	}
	for i, e := range m.Epochs {
		if e.Epoch != i {
			return nil, fmt.Errorf("obslog: manifest epoch %d recorded at position %d", e.Epoch, i)
		}
		if len(e.Offsets) != numShards {
			return nil, fmt.Errorf("obslog: manifest epoch %d has %d shard offsets, want %d", i, len(e.Offsets), numShards)
		}
		for _, p := range ident.Protocols {
			key := protoKey(p)
			off, ok := e.Offsets[key]
			if !ok {
				return nil, fmt.Errorf("obslog: manifest epoch %d has no %s shard offset", i, key)
			}
			prev := int64(headerSize)
			if i > 0 {
				prev = m.Epochs[i-1].Offsets[key]
			}
			if off < prev+markSize {
				return nil, fmt.Errorf("obslog: manifest epoch %d %s shard offset %d, want at least %d (one epoch marker past %d)",
					i, key, off, prev+markSize, prev)
			}
		}
	}
	return &m, nil
}
