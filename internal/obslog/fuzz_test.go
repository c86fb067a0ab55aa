package obslog

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aliaslimit/internal/ident"
)

// FuzzEpochReader writes the fuzz bytes as an SSH shard file and streams
// the [start, end) segment of the given epoch through openEpochRange — the
// path Replay, OpenEpoch and Writer.EpochReaderAt share. The seeds are a
// genuine two-epoch shard with each epoch's range, truncations of it, and a
// copy with one byte flipped. Properties: no panic; Next ends in io.EOF or
// in an error every later call repeats; the parse buffer never grows past
// the segment length; and a genuine segment yields the records written.
func FuzzEpochReader(f *testing.F) {
	dir := writeStreamLog(f)
	shard, err := os.ReadFile(filepath.Join(dir, shardName(ident.SSH)))
	if err != nil {
		f.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		f.Fatal(err)
	}
	var starts, ends [2]int64
	for e := range starts {
		if starts[e], ends[e], err = man.epochRange(ident.SSH, e); err != nil {
			f.Fatal(err)
		}
		f.Add(shard, uint8(e), starts[e], ends[e])
	}
	for n := 0; n < len(shard); n += 37 {
		f.Add(shard[:n], uint8(1), starts[1], ends[1])
	}
	flipped := bytes.Clone(shard)
	flipped[(starts[1]+ends[1])/2] ^= 0x01
	f.Add(flipped, uint8(1), starts[1], ends[1])

	f.Fuzz(func(t *testing.T, data []byte, epoch uint8, start, end int64) {
		path := filepath.Join(t.TempDir(), shardName(ident.SSH))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openEpochRange(path, ident.SSH, int(epoch), start, end, ReadOptions{})
		if err != nil {
			return
		}
		defer r.Close()
		// Every frame takes at least frameOverhead+1 bytes of the segment.
		maxFrames := int((end - start) / (frameOverhead + 1))
		var got []rec
		var last error
		for n := 0; ; n++ {
			if n > maxFrames {
				t.Fatalf("%d records from a %d-byte segment", n, end-start)
			}
			src, o, err := r.Next()
			if int64(cap(r.buf)) > end-start {
				t.Fatalf("parse buffer grew to %d bytes for a %d-byte segment", cap(r.buf), end-start)
			}
			if err != nil {
				last = err
				break
			}
			got = append(got, rec{src: src, addr: o.Addr, digest: o.ID.Digest})
		}
		for i := 0; i < 2; i++ {
			if _, _, err := r.Next(); err != last {
				t.Fatalf("Next after %v returned %v", last, err)
			}
		}
		if e := int(epoch); e < len(starts) && start == starts[e] && end == ends[e] && bytes.HasPrefix(data, shard[:end]) {
			if last != io.EOF {
				t.Fatalf("genuine epoch %d segment: %v", e, last)
			}
			if want := streamLogRecs(e, ident.SSH); !reflect.DeepEqual(got, want) {
				t.Fatalf("genuine epoch %d segment: got %v, want %v", e, got, want)
			}
		}
	})
}
