package obslog

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// streamEpoch drains an EpochReader into per-source observation slices.
func streamEpoch(t *testing.T, r *EpochReader) (active, censys []alias.Observation) {
	t.Helper()
	for {
		src, o, err := r.Next()
		if err == io.EOF {
			return active, censys
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if src == SourceCensys {
			censys = append(censys, o)
		} else {
			active = append(active, o)
		}
	}
}

// streamLogRecs lists one shard's records in epoch e of writeStreamLog's
// log, in the canonical (source, address, digest) order a fold writes.
func streamLogRecs(e int, p ident.Protocol) []rec {
	var out []rec
	add := func(src Source, prefix string) {
		for i := 0; i < 9; i++ {
			addr := netip.MustParseAddr(fmt.Sprintf("10.%d.0.%d", e, i+1))
			out = append(out, rec{src: src, addr: addr, digest: fmt.Sprintf("%s%d-%d", prefix, e, i)})
		}
	}
	switch p {
	case ident.SSH:
		add(SourceActive, "a")
		add(SourceCensys, "c")
	case ident.BGP:
		add(SourceActive, "b")
	default:
		add(SourceActive, "s")
	}
	return out
}

// writeStreamLog builds a small two-epoch log and returns its directory.
func writeStreamLog(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, testMeta, Options{SpillThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		for _, p := range ident.Protocols {
			for _, r := range streamLogRecs(e, p) {
				w.Observe(r.src, p, r.observation(p))
			}
		}
		if err := w.CompleteEpoch(e, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestEpochReaderMatchesReplay proves Replay and the chunked streaming
// reader both yield exactly the records written — for every epoch and
// shard, the reader at a readahead small enough to exercise refills.
func TestEpochReaderMatchesReplay(t *testing.T) {
	dir := writeStreamLog(t)
	for e := 0; e < 2; e++ {
		snap, err := Replay(dir, e)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ident.Protocols {
			var wantActive, wantCensys []alias.Observation
			for _, r := range streamLogRecs(e, p) {
				if r.src == SourceCensys {
					wantCensys = append(wantCensys, r.observation(p))
				} else {
					wantActive = append(wantActive, r.observation(p))
				}
			}
			if !reflect.DeepEqual(snap.Active[p], wantActive) || !reflect.DeepEqual(snap.Censys[p], wantCensys) {
				t.Fatalf("epoch %d %s: Replay differs from the records written", e, protoKey(p))
			}
			// minReadahead clamps this up, but the tiny request documents
			// the intent: exercise refills, not one-shot reads.
			r, err := OpenEpoch(dir, p, e, ReadOptions{Readahead: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Offset spans exactly the segment (the header check reads
			// apart from it), so Offset deltas count segment bytes read.
			start, end := shardEpochRange(t, dir, p, e)
			if got := r.Offset(); got != start {
				t.Fatalf("epoch %d %s: Offset %d at open, segment starts at %d", e, protoKey(p), got, start)
			}
			active, censys := streamEpoch(t, r)
			r.Close()
			if !reflect.DeepEqual(active, wantActive) || !reflect.DeepEqual(censys, wantCensys) {
				t.Fatalf("epoch %d %s: streamed records differ from the records written", e, protoKey(p))
			}
			if got := r.Offset(); got != end {
				t.Fatalf("epoch %d %s: Offset %d at EOF, segment ends at %d", e, protoKey(p), got, end)
			}
			// After EOF the reader stays at EOF.
			if _, _, err := r.Next(); err != io.EOF {
				t.Fatalf("Next after EOF = %v, want io.EOF", err)
			}
		}
	}
	if _, err := OpenEpoch(dir, ident.SSH, 2, ReadOptions{}); err == nil {
		t.Fatal("OpenEpoch accepted an uncommitted epoch")
	}
}

// TestEpochReaderPendingFold proves a folded-but-uncommitted epoch streams
// through Writer.EpochReaderAt, and that commit does not change what the
// reader yields.
func TestEpochReaderPendingFold(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Observe(SourceActive, ident.SSH, obs(ident.SSH, "10.0.0.1", "d1"))
	w.Observe(SourceCensys, ident.SSH, obs(ident.SSH, "10.0.0.2", "d2"))
	if _, err := w.EpochReaderAt(ident.SSH, 0, ReadOptions{}); err == nil {
		t.Fatal("EpochReaderAt served an unfolded epoch")
	}
	if err := w.FoldEpoch(0); err != nil {
		t.Fatal(err)
	}
	if err := w.FoldEpoch(0); err != nil {
		t.Fatalf("re-folding the pending epoch: %v", err)
	}
	r, err := w.EpochReaderAt(ident.SSH, 0, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pendingActive, pendingCensys := streamEpoch(t, r)
	r.Close()
	if err := w.CompleteEpoch(0, "digest", 7); err != nil {
		t.Fatal(err)
	}
	r, err = w.EpochReaderAt(ident.SSH, 0, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	committedActive, committedCensys := streamEpoch(t, r)
	r.Close()
	if !reflect.DeepEqual(pendingActive, committedActive) || !reflect.DeepEqual(pendingCensys, committedCensys) {
		t.Fatal("pending-fold read differs from committed read")
	}
	if len(pendingActive) != 1 || len(pendingCensys) != 1 {
		t.Fatalf("streamed %d active + %d censys records, want 1 + 1", len(pendingActive), len(pendingCensys))
	}
}

// shardEpochRange resolves a committed epoch's byte range for doctoring.
func shardEpochRange(t *testing.T, dir string, p ident.Protocol, epoch int) (start, end int64) {
	t.Helper()
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	start, end, err = man.epochRange(p, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return start, end
}

// doctorShard rewrites bytes of a shard file in place.
func doctorShard(t *testing.T, dir string, p ident.Protocol, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, shardName(p)), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// mustFailStream asserts that streaming the epoch surfaces an error whose
// message contains want, that the error is sticky, and that no record after
// the failure point was delivered.
func mustFailStream(t *testing.T, dir string, p ident.Protocol, epoch int, want string) {
	t.Helper()
	r, err := OpenEpoch(dir, p, epoch, ReadOptions{Readahead: 1})
	if err != nil {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("open error %q does not mention %q", err, want)
		}
		return
	}
	defer r.Close()
	for {
		_, _, err := r.Next()
		if err == io.EOF {
			t.Fatalf("epoch %d streamed to EOF despite corruption (want error containing %q)", epoch, want)
		}
		if err != nil {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
			if _, _, again := r.Next(); again != err {
				t.Fatalf("error not sticky: second Next returned %v", again)
			}
			return
		}
	}
}

// TestEpochReaderTornFrame covers the torn-tail-mid-chunk edge: a frame
// whose length field claims bytes beyond the committed epoch boundary must
// surface a clean error, not a short record or a silent stop — inside a
// committed segment a torn frame means the log lost data it promised.
func TestEpochReaderTornFrame(t *testing.T) {
	dir := writeStreamLog(t)
	start, _ := shardEpochRange(t, dir, ident.SSH, 1)
	// Inflate the first frame's length prefix so it crosses the boundary.
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], 1<<20)
	doctorShard(t, dir, ident.SSH, start, n[:])
	mustFailStream(t, dir, ident.SSH, 1, "torn frame")
}

// TestEpochReaderCorruptInteriorFrame covers the CRC edge: a flipped byte in
// the middle of a committed segment fails the frame's CRC-32C and surfaces
// as an error at exactly that frame.
func TestEpochReaderCorruptInteriorFrame(t *testing.T) {
	dir := writeStreamLog(t)
	start, end := shardEpochRange(t, dir, ident.BGP, 0)
	// Flip one payload byte roughly mid-segment — never the length prefix.
	doctorShard(t, dir, ident.BGP, start+(end-start)/2, []byte{0xFF})
	mustFailStream(t, dir, ident.BGP, 0, "CRC mismatch")
}

// TestEpochReaderTruncatedShard covers the truncated-epoch edge at the file
// level: a shard cut below a committed epoch's end offset is rejected at
// open — the manifest promised bytes the file no longer has.
func TestEpochReaderTruncatedShard(t *testing.T) {
	dir := writeStreamLog(t)
	_, end := shardEpochRange(t, dir, ident.SNMP, 1)
	path := filepath.Join(dir, shardName(ident.SNMP))
	if err := os.Truncate(path, end-3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEpoch(dir, ident.SNMP, 1, ReadOptions{}); err == nil {
		t.Fatal("OpenEpoch accepted a shard truncated below the committed epoch")
	} else if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error %q does not mention truncation", err)
	}
}

// TestEpochReaderTruncatedMarker covers the malformed-epoch-marker edge: a
// marker frame whose payload is shorter than the five marker bytes is a
// structural defect, reported as such rather than closing the epoch.
func TestEpochReaderTruncatedMarker(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, shardName(ident.SSH))
	buf := appendFrame(nil, headerPayload(ident.SSH))
	start := int64(len(buf))
	buf = appendFrame(buf, appendObsPayload(nil, rec{src: SourceActive, addr: netip.MustParseAddr("10.0.0.1"), digest: "d1"}))
	buf = appendFrame(buf, []byte{kindMark, 0}) // marker cut to 2 payload bytes
	end := int64(len(buf))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := openEpochRange(path, ident.SSH, 0, start, end, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Next(); err != nil {
		t.Fatalf("observation before the marker: %v", err)
	}
	if _, _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "truncated epoch marker") {
		t.Fatalf("Next = %v, want truncated epoch marker error", err)
	}
}

// TestEpochReaderMisnumberedMarker: a structurally valid marker carrying the
// wrong epoch index is impossible content inside a committed segment.
func TestEpochReaderMisnumberedMarker(t *testing.T) {
	dir := writeStreamLog(t)
	_, end := shardEpochRange(t, dir, ident.SSH, 0)
	// Rewrite epoch 0's marker in place to claim epoch 7. The marker frame
	// is the last 13 bytes of the segment (5-byte payload + overhead).
	frame := appendFrame(nil, markPayload(7))
	doctorShard(t, dir, ident.SSH, end-int64(len(frame)), frame)
	mustFailStream(t, dir, ident.SSH, 0, "epoch marker 7")
}
