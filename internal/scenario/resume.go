package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"aliaslimit/internal/atomicio"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
)

// Crash resume: ResumeLongitudinal continues a durable longitudinal run that
// was killed mid-flight, from the last epoch whose checkpoint (observation
// log segment + manifest entry + scorecard file) committed. The continuation
// is exact in the gated sense: every epoch's sets digest — replayed or live —
// equals the digest an uninterrupted run records, which the crash-resume CI
// job asserts end to end. Three gates enforce it:
//
//  1. World replay: churn draws are stateless hash draws keyed on
//     (seed, operation, epoch, entity), so EnvSeries.SkipEpoch mutates the
//     world exactly as the original epochs did; World.ChurnDrawState is
//     checked against the manifest after every skipped epoch.
//  2. Log replay: each committed epoch's observations are replayed from the
//     log through fresh resolver sessions and re-digested; the digest must
//     match the manifest's sets_digest.
//  3. Scorecard presence: an epoch without its scorecard file (a torn
//     checkpoint) is rolled back along with every later epoch and re-run
//     live.
//
// Only the MIDAR validation tally of post-resume live epochs may differ from
// the uninterrupted run (skipped epochs skip the clock-advancing probe
// rounds); identifiers and collections are clock-independent, so every alias
// set and digest is reproduced bit for bit.

// epochsDirName holds the per-epoch scorecard files inside a log directory.
const epochsDirName = "epochs"

// epochScorePath is the scorecard file for one epoch of a durable run.
func epochScorePath(dir string, epoch int) string {
	return filepath.Join(dir, epochsDirName, fmt.Sprintf("epoch-%04d.json", epoch))
}

// saveEpochScore persists one epoch's scorecard atomically. It runs inside
// the epoch-checkpoint hook, before the manifest commits the epoch, so a
// manifest-committed epoch always has its scorecard on disk.
func saveEpochScore(dir string, es *EpochScore) error {
	if err := os.MkdirAll(filepath.Join(dir, epochsDirName), 0o755); err != nil {
		return fmt.Errorf("scenario: epoch scorecard dir: %w", err)
	}
	data, err := json.MarshalIndent(es, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encoding epoch %d scorecard: %w", es.Epoch, err)
	}
	return atomicio.WriteFile(epochScorePath(dir, es.Epoch), append(data, '\n'), 0o644)
}

// loadEpochScore reads one committed epoch's scorecard back.
func loadEpochScore(dir string, epoch int) (*EpochScore, error) {
	data, err := os.ReadFile(epochScorePath(dir, epoch))
	if err != nil {
		return nil, err
	}
	var es EpochScore
	if err := json.Unmarshal(data, &es); err != nil {
		return nil, fmt.Errorf("scenario: epoch %d scorecard: %w", epoch, err)
	}
	if es.Epoch != epoch {
		return nil, fmt.Errorf("scenario: scorecard file for epoch %d claims epoch %d", epoch, es.Epoch)
	}
	return &es, nil
}

// ResumeLongitudinal continues the durable longitudinal run under dir. The
// run's identity — preset, seed, scale, quick, epochs, decay — comes from the
// log's manifest; opts contributes only the execution knobs that cannot
// change results (Workers, Parallelism, StreamCollect). A manifest
// whose backend is not resolver.Name was written by a resolver this build no
// longer has, and is refused. Epochs the log holds are
// replayed and verified, remaining epochs run live, and the assembled
// LongitudinalResult is identical (MIDAR tallies of post-crash epochs aside)
// to what the uninterrupted run would have returned.
func ResumeLongitudinal(dir string, opts Options) (*LongitudinalResult, error) {
	lg, man, err := obslog.Resume(dir, obslog.Options{})
	if err != nil {
		return nil, fmt.Errorf("scenario: resuming %s: %w", dir, err)
	}
	meta := man.Meta
	p, ok := Lookup(meta.Scenario)
	if !ok {
		lg.Close()
		return nil, fmt.Errorf("scenario: log %s was written by unknown preset %q", dir, meta.Scenario)
	}
	if meta.Epochs < 2 {
		lg.Close()
		return nil, fmt.Errorf("scenario: log %s is not a longitudinal run (epochs=%d)", dir, meta.Epochs)
	}
	if meta.Backend != resolver.Name {
		lg.Close()
		return nil, fmt.Errorf("scenario: log %s manifest field backend is %q; only %q logs resume",
			dir, meta.Backend, resolver.Name)
	}

	// Rebuild the original options from the manifest. Quick runs must go back
	// through the quick path (Scale=0) so resolveConfig re-derives the same
	// config — and the same MIDAR sampling — as the original invocation.
	ropts := LongitudinalOptions{
		Options: Options{
			Seed:        meta.Seed,
			Quick:       meta.Quick,
			Workers:     opts.Workers,
			Parallelism: opts.Parallelism,
			LogDir:      dir,
			// Streaming collection is a memory policy, not a semantic
			// difference (its alias sets are byte-identical), so like
			// Workers it carries over from the resume invocation.
			StreamCollect: opts.StreamCollect,
		},
		Epochs: meta.Epochs,
		Decay:  meta.Decay,
	}
	if !meta.Quick {
		ropts.Scale = meta.Scale
	}

	r, err := newLongRun(p, ropts, lg)
	if err != nil {
		lg.Close()
		return nil, err
	}
	defer r.close()
	if r.cfg.Seed != meta.Seed || r.cfg.Scale != meta.Scale || r.quick != meta.Quick ||
		r.n != meta.Epochs {
		return nil, fmt.Errorf("scenario: manifest of %s does not reproduce its run config "+
			"(seed %d/%d scale %v/%v quick %v/%v epochs %d/%d)",
			dir, r.cfg.Seed, meta.Seed, r.cfg.Scale, meta.Scale, r.quick, meta.Quick,
			r.n, meta.Epochs)
	}

	// A committed epoch is usable only if its scorecard file exists too; a
	// torn checkpoint truncates the run back to the last fully durable epoch.
	done := man.EpochsDone
	usable := 0
	for usable < done {
		if _, err := os.Stat(epochScorePath(dir, usable)); err != nil {
			break
		}
		usable++
	}
	if usable < done {
		if err := r.log.Rollback(usable); err != nil {
			return nil, fmt.Errorf("scenario: rolling back torn checkpoint: %w", err)
		}
		done = usable
	}

	for e := 0; e < done; e++ {
		if _, err := r.series.SkipEpoch(); err != nil {
			return nil, fmt.Errorf("scenario: replaying epoch %d: %w", e, err)
		}
		rec := man.Epochs[e]
		if got := r.series.World.ChurnDrawState(); got != rec.DrawState {
			return nil, fmt.Errorf("scenario: world replay diverged at epoch %d "+
				"(draw state %#x, manifest %#x)", e, got, rec.DrawState)
		}
		snap, err := obslog.Replay(dir, e)
		if err != nil {
			return nil, fmt.Errorf("scenario: replaying epoch %d: %w", e, err)
		}
		env, err := experiments.ReplayEnv(snap)
		if err != nil {
			return nil, fmt.Errorf("scenario: replaying epoch %d: %w", e, err)
		}
		digest, _ := DigestPartitions(ScoredPartitions(env))
		if digest != rec.SetsDigest {
			return nil, fmt.Errorf("scenario: log replay of epoch %d diverged "+
				"(sets digest %s, manifest %s)", e, digest, rec.SetsDigest)
		}
		es, err := loadEpochScore(dir, e)
		if err != nil {
			return nil, fmt.Errorf("scenario: replaying epoch %d: %w", e, err)
		}
		if es.SetsDigest != rec.SetsDigest {
			return nil, fmt.Errorf("scenario: epoch %d scorecard digest %s disagrees with manifest %s",
				e, es.SetsDigest, rec.SetsDigest)
		}
		r.out.Epochs = append(r.out.Epochs, es)
		view, err := newEpochView(env)
		if err != nil {
			return nil, fmt.Errorf("scenario: replaying epoch %d: %w", e, err)
		}
		r.views = append(r.views, view)
	}
	if done == r.n {
		// Fully committed run: after the last skipped epoch the world's truth
		// is exactly the final scan-time truth (nothing churns after a scan).
		r.finalTruth = r.series.World.Truth.Snapshot()
	}
	for len(r.out.Epochs) < r.n {
		if err := r.runEpoch(); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}
