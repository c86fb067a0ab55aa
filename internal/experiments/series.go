package experiments

import (
	"fmt"
	"os"
	"time"

	"aliaslimit/internal/obslog"
	"aliaslimit/internal/topo"
)

// EnvSeries is the multi-epoch measurement runtime: one persistent world
// measured by N successive snapshot→churn→scan rounds. Each Advance call
// performs one full epoch — epoch-boundary churn (address renumbering,
// device-reboot re-keying, wire down/up), then the Censys snapshot, the
// intra-epoch churn and clock gap, and the active scan — and returns a fully
// sealed Env plus the ground truth as it stood at scan time.
//
// The series is strictly sequential: the caller must finish consuming one
// epoch (including clock-advancing analyses like the MIDAR run) before
// calling Advance again, mirroring the ordering contract of topo.World's
// mutating methods. Within an epoch, collection retains the full concurrency
// of CollectActive/CollectCensys and the byte-determinism contract: the same
// (options, epoch) always yields identical datasets at any Workers or
// Parallelism setting.
type EnvSeries struct {
	// World is the persistent simulated Internet shared by every epoch.
	World *topo.World

	opts SeriesOptions
	next int

	// spill is the observation log stream collection writes through: the
	// caller's Options.Log when set, else a temporary writer the series
	// owns (spillOwned) and Close tears down with its directory.
	spill      *obslog.Writer
	spillDir   string
	spillOwned bool
}

// SeriesOptions parameterise a multi-epoch run.
type SeriesOptions struct {
	// Options configures the world and each epoch's collection exactly as
	// BuildEnv does (BuildEnv is the Epochs=1 special case of a series).
	Options
	// Epochs is the number of snapshot rounds; 0 and 1 both mean a single
	// epoch.
	Epochs int
	// EpochGap is the simulated time between one epoch's active scan and the
	// next epoch's Censys snapshot; zero picks five weeks (with the
	// three-week intra-epoch gap, one epoch per two simulated months).
	EpochGap time.Duration
	// EpochChurn is applied at every epoch boundary (not before the first
	// epoch). The zero value disables boundary churn; Options.ChurnFraction
	// still applies within each epoch.
	EpochChurn topo.EpochChurn
}

// EpochStats reports what one Advance call did to the world.
type EpochStats struct {
	// Epoch is the zero-based epoch index.
	Epoch int
	// EpochChurnStats counts the boundary mutations (zero for epoch 0).
	topo.EpochChurnStats
	// IntraChurned counts addresses reassigned by the intra-epoch churn
	// between the Censys snapshot and the active scan.
	IntraChurned int
}

// Epoch is one completed measurement round.
type Epoch struct {
	// Env is the sealed environment measured this round.
	Env *Env
	// Stats counts the churn that preceded and accompanied the round.
	Stats EpochStats
	// Truth is the ground truth snapshotted at scan time. Scoring an epoch
	// against the world's live Truth instead would judge early measurements
	// by a later world.
	Truth *topo.Truth
}

// NewEnvSeries builds the world (and installs the fault policy) without
// measuring anything; call Advance once per epoch. Scan options a sweep
// would refuse are refused here, before the world is built.
func NewEnvSeries(opts SeriesOptions) (*EnvSeries, error) {
	if _, err := opts.Scan.withDefaults(); err != nil {
		return nil, err
	}
	cfg := opts.Topo
	if cfg.Scale == 0 {
		cfg = topo.Default()
	}
	opts.Topo = cfg
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	if opts.SnapshotGap == 0 {
		opts.SnapshotGap = 21 * 24 * time.Hour
	}
	if opts.ChurnFraction == 0 {
		opts.ChurnFraction = 0.02
	}
	if opts.EpochGap == 0 {
		opts.EpochGap = 35 * 24 * time.Hour
	}
	w, err := topo.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: building world: %w", err)
	}
	w.Fabric.SetFaults(opts.Faults)
	return &EnvSeries{World: w, opts: opts}, nil
}

// Epochs returns the configured number of snapshot rounds.
func (s *EnvSeries) Epochs() int { return s.opts.Epochs }

// ensureSpill returns the observation log stream collection writes through,
// creating the series-owned temporary writer on first use when the caller
// supplied no durable log. The temporary spill is collection scratch, not a
// checkpoint: it never fsyncs.
func (s *EnvSeries) ensureSpill() (*obslog.Writer, error) {
	if s.opts.Log != nil {
		return s.opts.Log, nil
	}
	if s.spill == nil {
		dir, err := os.MkdirTemp("", "aliaslimit-stream-*")
		if err != nil {
			return nil, fmt.Errorf("experiments: stream spill: %w", err)
		}
		meta := obslog.RunMeta{
			Scenario: "stream-collect",
			Seed:     s.opts.Scan.Seed,
			Scale:    s.opts.Topo.Scale,
			Epochs:   s.opts.Epochs,
		}
		w, err := obslog.Create(dir, meta, obslog.Options{Sync: obslog.SyncNever})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("experiments: stream spill: %w", err)
		}
		s.spill, s.spillDir, s.spillOwned = w, dir, true
	}
	return s.spill, nil
}

// Close releases the series' temporary stream-collection spill, if one was
// created. Stream-backed epochs of this series must be fully consumed
// first — their datasets replay from the spill. Safe to call on any series;
// a caller-supplied Options.Log is never touched.
func (s *EnvSeries) Close() error {
	if !s.spillOwned {
		return nil
	}
	var err error
	if s.spill != nil {
		err = s.spill.Close()
	}
	if s.spillDir != "" {
		if rerr := os.RemoveAll(s.spillDir); err == nil {
			err = rerr
		}
	}
	s.spill, s.spillDir, s.spillOwned = nil, "", false
	return err
}

// Advance runs the next epoch and returns it. It fails once the configured
// number of epochs is exhausted.
func (s *EnvSeries) Advance() (*Epoch, error) {
	e := s.next
	if e >= s.opts.Epochs {
		return nil, fmt.Errorf("experiments: series exhausted after %d epochs", s.opts.Epochs)
	}
	s.next++
	w := s.World

	activeOpts, censysOpts := s.opts.Scan, s.opts.Scan
	lg := s.opts.Log
	if s.opts.StreamCollect {
		// Out-of-core collection: the log (the caller's, or a temporary
		// spill) is the only place observations land.
		var err error
		if lg, err = s.ensureSpill(); err != nil {
			return nil, err
		}
	}
	if lg != nil {
		// The log records every observation campaign-tagged, so replay can
		// rebuild the asymmetric dataset split.
		activeOpts.Sink = TeeSink(activeOpts.Sink, lg.Sink(obslog.SourceActive))
		censysOpts.Sink = TeeSink(censysOpts.Sink, lg.Sink(obslog.SourceCensys))
	}
	var activeC, censysC *collector
	if !s.opts.StreamCollect {
		activeC, censysC = &collector{}, &collector{}
		activeOpts.Sink = TeeSink(activeOpts.Sink, activeC)
		censysOpts.Sink = TeeSink(censysOpts.Sink, censysC)
	}

	var stats EpochStats
	stats.Epoch = e
	if e > 0 {
		w.Clock.Advance(s.opts.EpochGap)
		stats.EpochChurnStats = w.ApplyEpochChurn(s.opts.EpochChurn, e)
	}

	if err := sweepCensys(w, censysOpts); err != nil {
		return nil, err
	}
	w.Clock.Advance(s.opts.SnapshotGap)
	if s.opts.ChurnFraction > 0 {
		// Odd round numbers; epoch-boundary renumbering uses the even ones.
		stats.IntraChurned = w.ApplyChurn(s.opts.ChurnFraction, 2*e+1)
	}
	if err := sweepActive(w, activeOpts); err != nil {
		return nil, err
	}
	var env *Env
	if s.opts.StreamCollect {
		// Fold the epoch into its canonical on-disk segment and build the
		// datasets from it in one bounded pass per shard (see stream.go).
		// The fold precedes the manifest commit so the EpochDigest hook
		// below can read the views.
		if err := lg.FoldEpoch(e); err != nil {
			return nil, fmt.Errorf("experiments: folding epoch %d: %w", e, err)
		}
		var err error
		if env, err = streamEnv(w, lg, e); err != nil {
			return nil, fmt.Errorf("experiments: sealing epoch %d: %w", e, err)
		}
	} else {
		active, censys := activeC.dataset("Active"), censysC.dataset("Censys")
		env = newEnv(w, active, censys, Union("Union", active, censys))
	}
	ep := &Epoch{Env: env, Stats: stats, Truth: w.Truth.Snapshot()}
	if lg != nil {
		digest := ""
		if s.opts.EpochDigest != nil {
			d, err := s.opts.EpochDigest(ep)
			if err != nil {
				return nil, fmt.Errorf("experiments: epoch %d digest: %w", e, err)
			}
			digest = d
		}
		if err := lg.CompleteEpoch(e, digest, w.ChurnDrawState()); err != nil {
			return nil, fmt.Errorf("experiments: epoch %d checkpoint: %w", e, err)
		}
	}
	return ep, nil
}

// SkipEpoch replays one epoch's world mutations — the boundary churn, the
// clock gaps, and the intra-epoch churn — without running any scans. The
// crash-resume path uses it to march a freshly built world through the
// epochs the observation log already holds: churn draws are hash-keyed on
// (seed, operation, epoch, entity), so the skipped epochs mutate the world
// exactly as the original run did, which World.ChurnDrawState verifies
// against the checkpoint manifest. Only the clock-advancing analyses of the
// skipped epochs (the MIDAR probe rounds) are not replayed; they never
// touch churn state or identifiers, so subsequent live epochs reproduce the
// original sets digests bit for bit.
func (s *EnvSeries) SkipEpoch() (EpochStats, error) {
	e := s.next
	if e >= s.opts.Epochs {
		return EpochStats{}, fmt.Errorf("experiments: series exhausted after %d epochs", s.opts.Epochs)
	}
	s.next++
	w := s.World
	var stats EpochStats
	stats.Epoch = e
	if e > 0 {
		w.Clock.Advance(s.opts.EpochGap)
		stats.EpochChurnStats = w.ApplyEpochChurn(s.opts.EpochChurn, e)
	}
	w.Clock.Advance(s.opts.SnapshotGap)
	if s.opts.ChurnFraction > 0 {
		stats.IntraChurned = w.ApplyChurn(s.opts.ChurnFraction, 2*e+1)
	}
	return stats, nil
}
