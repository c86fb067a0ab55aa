package experiments

import (
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
)

// ReplayEnv rebuilds a sealed analysis environment from one epoch of a
// durable observation log, without a world: the log holds exactly what the
// epoch's scans yielded, so the dataset split (Active, Censys, and their
// union), the non-standard-port exclusion, and every partition view come
// out byte-identical to the in-RAM run that wrote the log, which is how the
// resume path proves the log's integrity through the sets-digest gate.
//
// The returned Env has a nil World: only dataset- and partition-level views
// are valid (everything scenario.ScoredPartitions reads). World-dependent
// analyses — the MIDAR verification run, coverage against ground truth —
// need the live series, not a replay. A resolver.Backend argument is
// ignored; the parameter keeps older callers compiling. The error is always
// nil.
func ReplayEnv(snap *obslog.Snapshot, _ ...resolver.Backend) (*Env, error) {
	// The log's canonical fold sorts each campaign's records by address, so
	// the datasets take the snapshot's slices as they are. newEnv derives
	// the non-standard-port count from the snapshot population with the
	// rule collection applies, so replays report identical exclusion
	// totals.
	active := newDataset("Active", snap.Active)
	censys := newDataset("Censys", snap.Censys)
	return newEnv(nil, active, censys, Union("Union", active, censys)), nil
}
