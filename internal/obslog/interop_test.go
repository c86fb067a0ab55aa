package obslog

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
)

// TestObsfileInterop round-trips a JSONL corpus through the binary log and
// back: obsfile.Read -> Writer -> Replay -> obsfile.Write -> obsfile.Read
// must preserve the record set exactly (the log canonicalises order and
// folds exact duplicates; nothing else may change).
func TestObsfileInterop(t *testing.T) {
	corpus := strings.Join([]string{
		`{"addr":"198.51.100.7","proto":"SSH","digest":"aa11"}`,
		`{"addr":"198.51.100.8","proto":"SSH","digest":"aa22"}`,
		`{"addr":"2001:db8::7","proto":"SSH","digest":"aa11"}`,
		`{"addr":"198.51.100.7","proto":"BGP","digest":"bb11"}`,
		`{"addr":"203.0.113.5","proto":"BGP","digest":"bb22"}`,
		`{"addr":"198.51.100.9","proto":"SNMPv3","digest":"cc11"}`,
		`{"addr":"198.51.100.7","proto":"SSH","digest":"aa11"}`, // duplicate line
	}, "\n")
	obs, err := obsfile.Read(strings.NewReader(corpus))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	w, err := Create(dir, testMeta, Options{SpillThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		w.Observe(SourceActive, o.ID.Proto, o)
	}
	if err := w.CompleteEpoch(0, "", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := Replay(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []alias.Observation
	for _, p := range ident.Protocols {
		replayed = append(replayed, snap.Active[p]...)
		if len(snap.Censys[p]) != 0 {
			t.Fatalf("censys partition gained %d records that were logged as active", len(snap.Censys[p]))
		}
	}

	// Back out through the JSONL writer and reader.
	var buf bytes.Buffer
	if err := obsfile.Write(&buf, replayed); err != nil {
		t.Fatal(err)
	}
	back, err := obsfile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(back), canonical(obs); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the record set:\ngot  %v\nwant %v", got, want)
	}
}

// TestObsfileUnknownProtocol pins the error path a corpus with a protocol
// the binary log has no shard for takes: obsfile.Read rejects it before any
// log write happens.
func TestObsfileUnknownProtocol(t *testing.T) {
	_, err := obsfile.Read(strings.NewReader(`{"addr":"198.51.100.7","proto":"QUIC","digest":"aa11"}`))
	if err == nil {
		t.Fatal("obsfile.Read accepted an unknown protocol")
	}
	if !strings.Contains(err.Error(), `unknown protocol "QUIC"`) {
		t.Fatalf("error %q does not name the unknown protocol", err)
	}
}

// TestShardRejectsWrongProtocolHeader covers the binary side of the
// unknown-protocol path: a shard whose header frame names a different
// protocol than its filename implies is refused at open — by Replay and by
// OpenEpoch, which share the EpochReader.
func TestShardRejectsWrongProtocolHeader(t *testing.T) {
	dir := writeTwoEpochs(t)
	// The SSH and BGP shards are the same size, so after a swap every
	// manifest offset still lands on a frame boundary of the other shard:
	// only the header can tell the two apart.
	sizes := make(map[ident.Protocol]int64)
	for _, p := range []ident.Protocol{ident.SSH, ident.BGP} {
		st, err := os.Stat(filepath.Join(dir, shardName(p)))
		if err != nil {
			t.Fatal(err)
		}
		sizes[p] = st.Size()
	}
	if sizes[ident.SSH] != sizes[ident.BGP] {
		t.Fatalf("ssh shard %d bytes, bgp shard %d: the swap needs equal sizes", sizes[ident.SSH], sizes[ident.BGP])
	}
	// Swap the SSH and BGP shard contents: headers no longer match names.
	swap(t, dir, shardName(ident.SSH), shardName(ident.BGP))
	if _, err := Replay(dir, 0); err == nil {
		t.Fatal("Replay accepted shards with mismatched protocol headers")
	} else if !strings.Contains(err.Error(), "bad header") {
		t.Fatalf("unexpected error: %v", err)
	}
	for _, p := range []ident.Protocol{ident.SSH, ident.BGP} {
		r, err := OpenEpoch(dir, p, 0, ReadOptions{})
		if err == nil {
			r.Close()
			t.Fatalf("OpenEpoch streamed the %s shard under the other protocol's header", protoKey(p))
		}
		if !strings.Contains(err.Error(), "bad header") {
			t.Fatalf("OpenEpoch(%s): unexpected error: %v", protoKey(p), err)
		}
	}
}

// swap exchanges two files' contents.
func swap(t *testing.T, dir, a, b string) {
	t.Helper()
	pa, pb := filepath.Join(dir, a), filepath.Join(dir, b)
	da, err := os.ReadFile(pa)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(pb)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pa, db, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, da, 0o644); err != nil {
		t.Fatal(err)
	}
}
