package experiments

import (
	"sync"
	"time"

	"aliaslimit/internal/netsim"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/topo"
)

// Env is a fully measured environment: the world plus the two datasets and
// their union — everything the tables and figures read from. The datasets
// are finished when the Env is built, so every analysis view is computed
// once and shared; see views.go for the caching contract.
type Env struct {
	// World is the synthetic Internet.
	World *topo.World
	// Active is the single-vantage measurement (taken three simulated weeks
	// after the Censys snapshot, as in the paper: March 28 → April 18).
	Active *Dataset
	// Censys is the snapshot dataset (IPv4 only).
	Censys *Dataset
	// Both is Union(Active, Censys), the default analysis input.
	Both *Dataset

	views envViews
	// session executes the cross-dataset merges; each dataset holds its own
	// session for its views.
	session   resolver.Session
	closeOnce sync.Once
	// onClose runs once, on Close — BuildEnv hangs the temporary
	// stream-collection spill's cleanup here so a facade-built Env owns its
	// whole footprint.
	onClose func() error
}

// Options parameterise environment construction.
type Options struct {
	// Topo configures world generation; zero value selects topo.Default().
	Topo topo.Config
	// Scan configures collection.
	Scan ScanOptions
	// SnapshotGap is the simulated time between the Censys snapshot and
	// the active scan; zero picks the paper's three weeks.
	SnapshotGap time.Duration
	// ChurnFraction is the share of dynamic addresses reassigned during
	// the gap; negative disables churn, zero picks 2%.
	ChurnFraction float64
	// Faults is the fabric's adversarial-condition policy (per-wire loss,
	// probe throttling, IPID overrides), installed after world generation
	// and before either measurement campaign. The zero value injects
	// nothing; see netsim.Faults for the determinism contract.
	Faults netsim.Faults
	// Backend is ignored: every environment resolves through its own
	// resolver sessions.
	//
	// Deprecated: the field remains for callers that still set it.
	Backend resolver.Backend
	// Log, when set, makes the run durable: both campaigns' scan sinks tee
	// every observation into the log writer during collection, and each
	// Advance ends by folding the epoch into its canonical on-disk segment
	// and committing the checkpoint manifest (epoch index, churn draw
	// state, per-shard offsets, and the digest below).
	Log *obslog.Writer
	// EpochDigest, consulted only when Log is set, produces the running
	// sets digest recorded in the epoch's checkpoint — and is the hook on
	// which callers hang their own per-epoch durable bookkeeping (the
	// scenario layer persists its epoch scorecard here): whatever it writes
	// is on disk before the manifest commits the epoch. Nil records an
	// empty digest.
	EpochDigest func(*Epoch) (string, error)
	// StreamCollect selects the out-of-core collection path: scan sinks
	// write straight into a per-protocol obslog spill (Log when set, else a
	// temporary writer) and accumulate nothing in RAM, and the datasets are
	// built by replaying the folded epoch through their resolver sessions
	// in one bounded pass per shard.
	// Alias sets are byte-identical to the in-RAM path; peak memory is
	// O(alias-set output + arena), not O(observations). Raw Dataset.Obs
	// reads are empty in this mode — analyses iterate through
	// Dataset.EachObs and the memoized views instead.
	StreamCollect bool
}

// BuildEnv generates a world and measures it from both vantage points in
// the paper's chronology: Censys first, churn and clock advance, then the
// active scan. It is the single-epoch special case of EnvSeries.
func BuildEnv(opts Options) (*Env, error) {
	s, err := NewEnvSeries(SeriesOptions{Options: opts, Epochs: 1})
	if err != nil {
		return nil, err
	}
	ep, err := s.Advance()
	if err != nil {
		s.Close()
		return nil, err
	}
	// A single-epoch Env owns the series' temporary spill (if any): its
	// Close tears the spill down.
	ep.Env.onClose = s.Close
	return ep.Env, nil
}
