package obslog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// DefaultReadahead is the chunk size an EpochReader fills its parse buffer
// with. Observation frames are tens of bytes, so one chunk amortises
// thousands of frames per read syscall while keeping the reader's resident
// footprint fixed no matter how large the epoch segment is.
const DefaultReadahead = 256 << 10

// minReadahead floors configured readahead: below this the buffer refills
// churn syscalls without saving measurable memory.
const minReadahead = 4 << 10

// ReadOptions tune an EpochReader.
type ReadOptions struct {
	// Readahead is the parse-buffer chunk size in bytes; 0 picks
	// DefaultReadahead. Values below a small floor are raised to it. A frame
	// larger than the readahead still parses — the buffer grows for that
	// frame only.
	Readahead int
}

// EpochReader streams one committed epoch of one shard, frame by frame, in
// bounded memory: the file is read in Readahead-sized chunks and only the
// unparsed tail of the current chunk is ever resident. It is the one
// decoder of committed segments: Replay, OpenEpoch and Writer.EpochReaderAt
// all read through it, and dataset sealing in the out-of-core collection
// path replays logged observations through it instead of materialising the
// epoch in RAM.
//
// It reads only an epoch the manifest has committed (or the writer has
// folded), after checking the shard's header frame, so any defect inside
// the segment — a torn frame, a CRC-corrupt interior frame, a truncated,
// misnumbered or misplaced epoch marker — is a hard error: the caller must
// never seal a partial dataset from a segment the log claims is complete.
// Torn tails past the committed offsets are Resume's job, which truncates
// them away before anything is read.
type EpochReader struct {
	f     *os.File
	p     ident.Protocol
	epoch int
	end   int64 // absolute offset one past the epoch's closing marker

	buf       []byte // unparsed window of the segment
	pos       int    // parse cursor within buf
	base      int64  // absolute file offset of buf[0]
	readahead int
	done      bool  // the epoch marker has been consumed
	err       error // sticky first failure
}

// OpenEpoch opens a streaming reader over one committed epoch of one
// shard, locating the segment through the manifest's per-epoch offsets —
// the reader seeks straight to the epoch's first frame rather than parsing
// the file from the top.
func OpenEpoch(dir string, p ident.Protocol, epoch int, opts ReadOptions) (*EpochReader, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	start, end, err := man.epochRange(p, epoch)
	if err != nil {
		return nil, err
	}
	return openEpochRange(filepath.Join(dir, shardName(p)), p, epoch, start, end, opts)
}

// epochRange resolves one committed epoch's [start, end) byte range in a
// shard from the manifest offsets.
func (m *Manifest) epochRange(p ident.Protocol, epoch int) (start, end int64, err error) {
	if epoch < 0 || epoch >= m.EpochsDone {
		return 0, 0, fmt.Errorf("obslog: epoch %d not committed (%d epochs done)", epoch, m.EpochsDone)
	}
	start = headerSize
	if epoch > 0 {
		start = m.Epochs[epoch-1].Offsets[protoKey(p)]
	}
	return start, m.Epochs[epoch].Offsets[protoKey(p)], nil
}

// openEpochRange opens a reader over an explicit [start, end) segment after
// checking the shard's header frame. The header is read with its own ReadAt,
// so Offset still counts only segment bytes.
func openEpochRange(path string, p ident.Protocol, epoch int, start, end int64, opts ReadOptions) (*EpochReader, error) {
	if start < 0 || start >= end {
		return nil, fmt.Errorf("obslog: %s shard: empty or inverted epoch %d segment [%d,%d)",
			protoKey(p), epoch, start, end)
	}
	ra := opts.Readahead
	if ra <= 0 {
		ra = DefaultReadahead
	}
	if ra < minReadahead {
		ra = minReadahead
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obslog: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obslog: %w", err)
	}
	if st.Size() < end {
		f.Close()
		return nil, fmt.Errorf("obslog: %s shard is %d bytes, epoch %d ends at %d (shard truncated below a committed epoch)",
			protoKey(p), st.Size(), epoch, end)
	}
	if err := checkHeader(f, p); err != nil {
		f.Close()
		return nil, err
	}
	return &EpochReader{f: f, p: p, epoch: epoch, end: end, base: start, readahead: ra}, nil
}

// Next returns the next logged observation of the epoch, tagged with the
// campaign that produced it. It returns io.EOF once the epoch's closing
// marker has been consumed, and a descriptive error for any structural
// defect inside the committed segment (see the type comment). After an
// error every subsequent call returns the same error.
func (r *EpochReader) Next() (Source, alias.Observation, error) {
	if r.err != nil {
		return 0, alias.Observation{}, r.err
	}
	if r.done {
		return 0, alias.Observation{}, io.EOF
	}
	payload, err := r.nextPayload()
	if err != nil {
		r.err = err
		return 0, alias.Observation{}, err
	}
	switch payload[0] {
	case kindObs:
		rec, err := decodeObsPayload(payload)
		if err != nil {
			r.err = fmt.Errorf("obslog: %s shard: %w", protoKey(r.p), err)
			return 0, alias.Observation{}, r.err
		}
		return rec.src, rec.observation(r.p), nil
	case kindMark:
		if len(payload) != 5 {
			r.err = fmt.Errorf("obslog: %s shard: truncated epoch marker (%d payload bytes) at offset %d",
				protoKey(r.p), len(payload), r.Offset())
			return 0, alias.Observation{}, r.err
		}
		e := int(binary.LittleEndian.Uint32(payload[1:]))
		if e != r.epoch {
			r.err = fmt.Errorf("obslog: %s shard: epoch marker %d where %d expected", protoKey(r.p), e, r.epoch)
			return 0, alias.Observation{}, r.err
		}
		if off := r.base + int64(r.pos); off != r.end {
			r.err = fmt.Errorf("obslog: %s shard: epoch %d marker at offset %d, segment ends at %d",
				protoKey(r.p), r.epoch, off, r.end)
			return 0, alias.Observation{}, r.err
		}
		r.done = true
		return 0, alias.Observation{}, io.EOF
	default:
		r.err = fmt.Errorf("obslog: %s shard: unknown frame kind %d at offset %d", protoKey(r.p), payload[0], r.Offset())
		return 0, alias.Observation{}, r.err
	}
}

// nextPayload parses the frame at the cursor, refilling the chunk buffer as
// needed, and returns its payload. The returned slice aliases the buffer
// and is only valid until the next call.
func (r *EpochReader) nextPayload() ([]byte, error) {
	if err := r.ensure(frameOverhead); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
	if n < 1 {
		return nil, fmt.Errorf("obslog: %s shard: corrupt frame length %d at offset %d", protoKey(r.p), n, r.Offset())
	}
	total := frameOverhead + n
	if r.base+int64(r.pos)+int64(total) > r.end {
		return nil, fmt.Errorf("obslog: %s shard: torn frame at offset %d (%d-byte frame crosses the epoch %d boundary at %d)",
			protoKey(r.p), r.Offset(), total, r.epoch, r.end)
	}
	if err := r.ensure(total); err != nil {
		return nil, err
	}
	frame := r.buf[r.pos : r.pos+total]
	payload := frame[4 : 4+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4+n:]) {
		return nil, fmt.Errorf("obslog: %s shard: CRC mismatch at offset %d (epoch %d)", protoKey(r.p), r.Offset(), r.epoch)
	}
	r.pos += total
	return payload, nil
}

// ensure makes at least n unparsed bytes available at the cursor, shifting
// the buffered tail to the front and reading further chunks of the segment
// as needed. It fails when fewer than n bytes remain before the epoch
// boundary — a torn frame inside a committed segment.
func (r *EpochReader) ensure(n int) error {
	if len(r.buf)-r.pos >= n {
		return nil
	}
	if r.pos > 0 {
		rem := copy(r.buf, r.buf[r.pos:])
		r.base += int64(r.pos)
		r.buf = r.buf[:rem]
		r.pos = 0
	}
	for len(r.buf) < n {
		readOff := r.base + int64(len(r.buf))
		if readOff >= r.end {
			return fmt.Errorf("obslog: %s shard: torn frame at offset %d (need %d bytes, epoch %d segment ends at %d)",
				protoKey(r.p), r.base+int64(r.pos), n, r.epoch, r.end)
		}
		want := r.readahead
		if want < n-len(r.buf) {
			want = n - len(r.buf)
		}
		if rest := r.end - readOff; int64(want) > rest {
			want = int(rest)
		}
		need := len(r.buf) + want
		if cap(r.buf) < need {
			nb := make([]byte, len(r.buf), need)
			copy(nb, r.buf)
			r.buf = nb
		}
		chunk := r.buf[len(r.buf):need]
		m, err := r.f.ReadAt(chunk, readOff)
		r.buf = r.buf[:len(r.buf)+m]
		if m == 0 {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("obslog: %s shard: read at offset %d: %w", protoKey(r.p), readOff, err)
		}
	}
	return nil
}

// Offset reports the absolute file offset of the next unread frame.
func (r *EpochReader) Offset() int64 { return r.base + int64(r.pos) }

// Close releases the reader's file handle.
func (r *EpochReader) Close() error { return r.f.Close() }
