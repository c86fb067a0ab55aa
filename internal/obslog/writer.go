package obslog

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// SyncPolicy controls when the Writer calls fsync on shard files. The
// manifest is always written atomically (temp file + rename) regardless of
// policy; the policy only governs how much of the current epoch a power
// loss can cost.
type SyncPolicy int

const (
	// SyncEpoch (the default) fsyncs each shard once per epoch, right
	// after the canonical segment and epoch marker are appended and before
	// the manifest commits the epoch. A crash costs at most the epoch in
	// flight.
	SyncEpoch SyncPolicy = iota
	// SyncNever leaves flushing to the OS. Fastest; a crash may lose
	// epochs the manifest claims are durable. For the temporary
	// stream-collection spill, benchmarks and tests.
	SyncNever
)

// DefaultSpillThreshold is the per-shard record count buffered in memory
// before arrivals overflow to the spill file.
const DefaultSpillThreshold = 4096

// Options tune a Writer.
type Options struct {
	// Sync is the fsync policy; zero value is SyncEpoch.
	Sync SyncPolicy
	// SpillThreshold overrides DefaultSpillThreshold when positive.
	SpillThreshold int
}

// Writer is the append side of an observation log directory. Observe is
// safe for concurrent use (the scan worker pools call it from many
// goroutines); CompleteEpoch and Close must be called with no Observe in
// flight, which the epoch structure of a run guarantees.
type Writer struct {
	dir    string
	shards [numShards]*shard

	mu  sync.Mutex // guards man, pending, pendingEpoch
	man *Manifest
	// pending holds the per-shard offsets of an epoch FoldEpoch has made
	// durable but CompleteEpoch has not yet recorded in the manifest — the
	// window in which the out-of-core sealing replay streams the folded
	// segment back through EpochReaderAt.
	pending      map[string]int64
	pendingEpoch int
}

// shard is the per-protocol buffered append state.
type shard struct {
	mu      sync.Mutex
	proto   ident.Protocol
	f       *os.File // canonical log, positioned at its end
	spill   *os.File // arrival-order overflow, positioned at its end
	mem     []rec    // in-memory arrival tail
	spilled int      // records currently in the spill file
	size    int64    // durable byte size of the canonical log
	limit   int      // spill threshold
	sync    SyncPolicy

	payloadBuf []byte // reusable frame payload scratch
	frameBuf   []byte // reusable encoded-frame scratch
}

// Create initialises a fresh log directory (created if missing). It refuses
// to reuse a directory that already holds a manifest — resume a prior run
// with Resume instead.
func Create(dir string, meta RunMeta, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obslog: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("obslog: %s already holds a log (use Resume)", dir)
	}
	w := &Writer{dir: dir, man: newManifest(meta)}
	for _, p := range ident.Protocols {
		s, err := createShard(dir, p, opts)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.shards[p] = s
	}
	if err := w.writeManifest(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// createShard creates a shard file with its header frame plus an empty
// spill file.
func createShard(dir string, p ident.Protocol, opts Options) (*shard, error) {
	s := &shard{proto: p, limit: opts.SpillThreshold, sync: opts.Sync}
	if s.limit <= 0 {
		s.limit = DefaultSpillThreshold
	}
	f, err := os.OpenFile(filepath.Join(dir, shardName(p)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obslog: %w", err)
	}
	header := appendFrame(nil, headerPayload(p))
	if _, err := f.Write(header); err != nil {
		f.Close()
		return nil, fmt.Errorf("obslog: %w", err)
	}
	s.f = f
	s.size = int64(len(header))
	sp, err := os.OpenFile(filepath.Join(dir, spillName(p)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obslog: %w", err)
	}
	s.spill = sp
	return s, nil
}

// Observe appends one observation to the current (incomplete) epoch. Unset
// addresses and empty digests are dropped — they cannot round-trip and the
// analysis layer ignores them anyway.
func (w *Writer) Observe(src Source, p ident.Protocol, o alias.Observation) {
	if !o.Addr.IsValid() || o.ID.Digest == "" {
		return
	}
	s := w.shards[p]
	s.mu.Lock()
	s.mem = append(s.mem, rec{src: src, addr: o.Addr, digest: o.ID.Digest})
	if len(s.mem) >= s.limit {
		s.flushSpillLocked()
	}
	s.mu.Unlock()
}

// flushSpillLocked encodes the in-memory tail as frames and appends it to
// the spill file. Spill write errors are deferred to CompleteEpoch (Observe
// has no error channel back through the scan sink interface); the records
// stay counted so the failure surfaces rather than silently shrinking the
// epoch.
func (s *shard) flushSpillLocked() {
	s.frameBuf = s.frameBuf[:0]
	for _, r := range s.mem {
		s.payloadBuf = appendObsPayload(s.payloadBuf[:0], r)
		s.frameBuf = appendFrame(s.frameBuf, s.payloadBuf)
	}
	if _, err := s.spill.Write(s.frameBuf); err == nil {
		s.spilled += len(s.mem)
		s.mem = s.mem[:0]
	}
}

// Sink adapts the Writer to the experiments.ObservationSink shape for one
// source, so scan options can tee into the log:
//
//	opts.Sink = experiments.TeeSink(opts.Sink, log.Sink(obslog.SourceActive))
type SinkWriter struct {
	w   *Writer
	src Source
}

// Sink returns the log's scan-sink adapter for src.
func (w *Writer) Sink(src Source) SinkWriter {
	return SinkWriter{w: w, src: src}
}

// Observe implements the observation-sink shape.
func (s SinkWriter) Observe(p ident.Protocol, o alias.Observation) {
	s.w.Observe(s.src, p, o)
}

// FoldEpoch folds the epoch's buffered arrivals into each shard's canonical
// segment — sorted, deduplicated, CRC-framed, closed by an epoch marker,
// fsynced per policy — without committing the manifest. The folded segment
// is immediately readable through EpochReaderAt, which is how streamed
// collection seals its datasets from disk before the epoch's digest (and
// hence the manifest record) exists. Calling FoldEpoch again for the same
// epoch is a no-op; a crash between fold and commit costs exactly the
// folded epoch, as if it had never been folded.
func (w *Writer) FoldEpoch(epoch int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.foldEpochLocked(epoch)
}

// foldEpochLocked is FoldEpoch's body; callers hold w.mu.
func (w *Writer) foldEpochLocked(epoch int) error {
	if w.pending != nil {
		if epoch == w.pendingEpoch {
			return nil
		}
		return fmt.Errorf("obslog: epoch %d folded but not committed; cannot fold %d", w.pendingEpoch, epoch)
	}
	if epoch != w.man.EpochsDone {
		return fmt.Errorf("obslog: epoch %d out of order (next is %d)", epoch, w.man.EpochsDone)
	}
	offsets := make(map[string]int64, len(w.shards))
	for _, p := range ident.Protocols {
		s := w.shards[p]
		if err := s.fold(epoch); err != nil {
			return err
		}
		offsets[protoKey(p)] = s.size
	}
	w.pending, w.pendingEpoch = offsets, epoch
	return nil
}

// CompleteEpoch commits the epoch: it folds the epoch's buffered arrivals
// into each shard's canonical segment (sorted, deduplicated, CRC-framed,
// closed by an epoch marker, fsynced per policy) unless FoldEpoch already
// did, then atomically commits the checkpoint manifest recording the
// per-shard offsets, the world churn draw state, and the running sets
// digest. epoch must be the next undone epoch. The segment is durable
// before the manifest names it — the ordering crash safety rests on.
func (w *Writer) CompleteEpoch(epoch int, setsDigest string, drawState uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.foldEpochLocked(epoch); err != nil {
		return err
	}
	w.man.EpochsDone = epoch + 1
	w.man.Epochs = append(w.man.Epochs, EpochRecord{
		Epoch:      epoch,
		SetsDigest: setsDigest,
		DrawState:  drawState,
		Offsets:    w.pending,
	})
	w.pending = nil
	return w.writeManifest()
}

// EpochReaderAt opens a chunked streaming reader over one epoch of one
// shard. It serves committed epochs and the epoch FoldEpoch has folded but
// not yet committed — the window the out-of-core sealing replay reads. The
// reader takes its own file handle, so subsequent appends never disturb it.
func (w *Writer) EpochReaderAt(p ident.Protocol, epoch int, opts ReadOptions) (*EpochReader, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := int64(headerSize)
	if epoch > 0 {
		if epoch-1 >= w.man.EpochsDone {
			return nil, fmt.Errorf("obslog: epoch %d neither committed nor folded (%d epochs done)", epoch, w.man.EpochsDone)
		}
		start = w.man.Epochs[epoch-1].Offsets[protoKey(p)]
	}
	var end int64
	switch {
	case epoch >= 0 && epoch < w.man.EpochsDone:
		end = w.man.Epochs[epoch].Offsets[protoKey(p)]
	case w.pending != nil && epoch == w.pendingEpoch:
		end = w.pending[protoKey(p)]
	default:
		return nil, fmt.Errorf("obslog: epoch %d neither committed nor folded (%d epochs done)", epoch, w.man.EpochsDone)
	}
	return openEpochRange(filepath.Join(w.dir, shardName(p)), p, epoch, start, end, opts)
}

// fold drains the spill and memory tail, canonicalises the epoch's records,
// and appends the segment plus the epoch marker to the canonical log.
func (s *shard) fold(epoch int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, err := s.drainLocked()
	if err != nil {
		return err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].less(recs[j]) })
	s.frameBuf = s.frameBuf[:0]
	var prev rec
	for i, r := range recs {
		if i > 0 && r == prev {
			continue
		}
		prev = r
		s.payloadBuf = appendObsPayload(s.payloadBuf[:0], r)
		s.frameBuf = appendFrame(s.frameBuf, s.payloadBuf)
	}
	s.frameBuf = appendFrame(s.frameBuf, markPayload(epoch))
	if _, err := s.f.Write(s.frameBuf); err != nil {
		return fmt.Errorf("obslog: %s shard: %w", protoKey(s.proto), err)
	}
	if s.sync != SyncNever {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("obslog: %s shard: %w", protoKey(s.proto), err)
		}
	}
	s.size += int64(len(s.frameBuf))
	return nil
}

// drainLocked returns all records of the epoch in flight (spilled plus
// in-memory) and resets the spill file for the next epoch. It detects
// shortfalls from failed spill writes.
func (s *shard) drainLocked() ([]rec, error) {
	recs := make([]rec, 0, s.spilled+len(s.mem))
	if s.spilled > 0 {
		if _, err := s.spill.Seek(0, 0); err != nil {
			return nil, fmt.Errorf("obslog: %s spill: %w", protoKey(s.proto), err)
		}
		data, err := os.ReadFile(s.spill.Name())
		if err != nil {
			return nil, fmt.Errorf("obslog: %s spill: %w", protoKey(s.proto), err)
		}
		for off := 0; off < len(data); {
			payload, n, ok := nextFrame(data[off:])
			if !ok {
				break
			}
			off += n
			r, err := decodeObsPayload(payload)
			if err != nil {
				return nil, fmt.Errorf("obslog: %s spill: %w", protoKey(s.proto), err)
			}
			recs = append(recs, r)
		}
		if len(recs) != s.spilled {
			return nil, fmt.Errorf("obslog: %s spill holds %d records, expected %d (spill write failed mid-epoch)",
				protoKey(s.proto), len(recs), s.spilled)
		}
	}
	recs = append(recs, s.mem...)
	s.mem = s.mem[:0]
	s.spilled = 0
	if err := s.spill.Truncate(0); err != nil {
		return nil, fmt.Errorf("obslog: %s spill: %w", protoKey(s.proto), err)
	}
	if _, err := s.spill.Seek(0, 0); err != nil {
		return nil, fmt.Errorf("obslog: %s spill: %w", protoKey(s.proto), err)
	}
	return recs, nil
}

// Rollback discards completed epochs beyond done: shard files are truncated
// to the offsets recorded at epoch done-1 (or their headers for done == 0)
// and the manifest is rewritten. The resume path uses it when a sidecar the
// caller persists per epoch (the scenario scorecard) did not survive the
// crash even though the log segment did.
func (w *Writer) Rollback(done int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if done < 0 || done > w.man.EpochsDone {
		return fmt.Errorf("obslog: cannot roll back to %d of %d epochs", done, w.man.EpochsDone)
	}
	if done == w.man.EpochsDone && w.pending == nil {
		return nil
	}
	// A folded-but-uncommitted segment sits beyond the committed offsets;
	// the truncation below removes it along with any rolled-back epochs.
	w.pending = nil
	for _, p := range ident.Protocols {
		s := w.shards[p]
		s.mu.Lock()
		size := int64(headerSize)
		if done > 0 {
			size = w.man.Epochs[done-1].Offsets[protoKey(p)]
		}
		err := s.f.Truncate(size)
		if err == nil {
			_, err = s.f.Seek(size, 0)
		}
		if err == nil {
			s.size = size
		}
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("obslog: %s shard: %w", protoKey(p), err)
		}
	}
	w.man.EpochsDone = done
	w.man.Epochs = w.man.Epochs[:done]
	return w.writeManifest()
}

// writeManifest atomically replaces the manifest file. Callers hold w.mu.
func (w *Writer) writeManifest() error {
	return w.man.write(w.dir)
}

// Close closes the shard files and removes the transient spill files. Any
// observations of an epoch that was never completed are discarded, exactly
// as a crash would discard them.
func (w *Writer) Close() error {
	var first error
	for _, s := range w.shards {
		if s == nil {
			continue
		}
		if s.spill != nil {
			name := s.spill.Name()
			if err := s.spill.Close(); err != nil && first == nil {
				first = err
			}
			os.Remove(name)
		}
		if s.f != nil {
			if err := s.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if first != nil {
		return fmt.Errorf("obslog: %w", first)
	}
	return nil
}

// Resume reopens an existing log directory for appending. Shard files are
// truncated back to the manifest's last committed offsets (dropping any
// partial epoch a crash left behind — including torn frames, which the
// offsets cut away wholesale) and the spill files are reset. It returns the
// reopened writer and the recovered manifest.
func Resume(dir string, opts Options) (*Writer, *Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	w := &Writer{dir: dir, man: man}
	for _, p := range ident.Protocols {
		s, err := resumeShard(dir, p, man, opts)
		if err != nil {
			w.Close()
			return nil, nil, err
		}
		w.shards[p] = s
	}
	snapshot := man.clone()
	return w, &snapshot, nil
}

// resumeShard reopens one shard at its last committed offset.
func resumeShard(dir string, p ident.Protocol, man *Manifest, opts Options) (*shard, error) {
	s := &shard{proto: p, limit: opts.SpillThreshold, sync: opts.Sync}
	if s.limit <= 0 {
		s.limit = DefaultSpillThreshold
	}
	path := filepath.Join(dir, shardName(p))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obslog: %w", err)
	}
	if err := checkHeader(f, p); err != nil {
		f.Close()
		return nil, err
	}
	size := int64(headerSize)
	if man.EpochsDone > 0 {
		size = man.Epochs[man.EpochsDone-1].Offsets[protoKey(p)]
	}
	if st, err := f.Stat(); err != nil {
		f.Close()
		return nil, fmt.Errorf("obslog: %w", err)
	} else if st.Size() < size {
		f.Close()
		return nil, fmt.Errorf("obslog: %s shard is %d bytes, manifest expects at least %d (log lost data the manifest committed)",
			protoKey(p), st.Size(), size)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("obslog: %s shard: %w", protoKey(p), err)
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("obslog: %s shard: %w", protoKey(p), err)
	}
	s.f = f
	s.size = size
	sp, err := os.OpenFile(filepath.Join(dir, spillName(p)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obslog: %w", err)
	}
	s.spill = sp
	return s, nil
}
