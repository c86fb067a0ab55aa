package obslog

import (
	"io"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// Snapshot is one epoch's full collection yield reconstructed from the log:
// every observation the epoch's scans produced, partitioned by campaign and
// indexed by protocol. experiments.ReplayEnv turns it back into a sealed
// analysis environment.
type Snapshot struct {
	// Epoch is the zero-based epoch index the snapshot replays.
	Epoch int
	// Active holds the single-vantage campaign's observations per protocol.
	Active [numShards][]alias.Observation
	// Censys holds the distributed campaign's observations per protocol.
	Censys [numShards][]alias.Observation
}

// Replay reconstructs one committed epoch's observations from the log,
// streaming each shard's segment through OpenEpoch. It errors if the
// manifest has not committed the epoch or any of its segments is defective
// (see EpochReader).
func Replay(dir string, epoch int) (*Snapshot, error) {
	snap := &Snapshot{Epoch: epoch}
	for _, p := range ident.Protocols {
		if err := snap.replayShard(dir, p); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// replayShard appends one shard's segment of the snapshot's epoch.
func (snap *Snapshot) replayShard(dir string, p ident.Protocol) error {
	r, err := OpenEpoch(dir, p, snap.Epoch, ReadOptions{})
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		src, o, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if src == SourceCensys {
			snap.Censys[p] = append(snap.Censys[p], o)
		} else {
			snap.Active[p] = append(snap.Active[p], o)
		}
	}
}
