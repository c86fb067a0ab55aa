package obslog

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// obs builds a test observation.
func obs(p ident.Protocol, addr, digest string) alias.Observation {
	return alias.Observation{
		Addr: netip.MustParseAddr(addr),
		ID:   ident.Identifier{Proto: p, Digest: digest},
	}
}

// testMeta is a minimal run description for writer tests.
var testMeta = RunMeta{Scenario: "test", Seed: 1, Scale: 0.05, Epochs: 3}

// canonical sorts and dedups an observation slice the way an epoch fold
// does, for comparing replays against inputs.
func canonical(in []alias.Observation) []alias.Observation {
	out := append([]alias.Observation(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].Addr.Compare(out[j].Addr); c != 0 {
			return c < 0
		}
		if out[i].ID.Proto != out[j].ID.Proto {
			return out[i].ID.Proto < out[j].ID.Proto
		}
		return out[i].ID.Digest < out[j].ID.Digest
	})
	dedup := out[:0]
	for i, o := range out {
		if i > 0 && o == out[i-1] {
			continue
		}
		dedup = append(dedup, o)
	}
	return dedup
}

func TestRoundTripWithSpill(t *testing.T) {
	dir := t.TempDir()
	// SpillThreshold 2 forces the overflow path on every third arrival.
	w, err := Create(dir, testMeta, Options{SpillThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	epochs := [][]struct {
		src Source
		o   alias.Observation
	}{
		{
			{SourceActive, obs(ident.SSH, "10.0.0.1", "d1")},
			{SourceActive, obs(ident.SSH, "10.0.0.2", "d2")},
			{SourceCensys, obs(ident.SSH, "10.0.0.1", "d1")},
			{SourceActive, obs(ident.SSH, "10.0.0.1", "d1")}, // exact duplicate, folded away
			{SourceActive, obs(ident.BGP, "2001:db8::1", "d3")},
			{SourceActive, obs(ident.SNMP, "10.0.0.3", "d4")},
		},
		{
			{SourceActive, obs(ident.SSH, "10.0.0.5", "d5")},
			{SourceCensys, obs(ident.BGP, "10.0.0.6", "d6")},
			{SourceActive, obs(ident.SNMP, "2001:db8::2", "d7")},
		},
	}
	for e, batch := range epochs {
		for _, b := range batch {
			w.Observe(b.src, b.o.ID.Proto, b.o)
		}
		if err := w.CompleteEpoch(e, fmt.Sprintf("digest-%d", e), uint64(100+e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Spill files must not survive Close.
	for _, p := range ident.Protocols {
		if _, err := os.Stat(filepath.Join(dir, spillName(p))); !os.IsNotExist(err) {
			t.Fatalf("spill file %s survived Close", spillName(p))
		}
	}
	for e, batch := range epochs {
		snap, err := Replay(dir, e)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ident.Protocols {
			var wantActive, wantCensys []alias.Observation
			for _, b := range batch {
				if b.o.ID.Proto != p {
					continue
				}
				if b.src == SourceCensys {
					wantCensys = append(wantCensys, b.o)
				} else {
					wantActive = append(wantActive, b.o)
				}
			}
			for _, cmp := range []struct {
				name      string
				got, want []alias.Observation
			}{
				{"active", snap.Active[p], canonical(wantActive)},
				{"censys", snap.Censys[p], canonical(wantCensys)},
			} {
				got := canonical(cmp.got)
				if len(got) == 0 && len(cmp.want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, cmp.want) {
					t.Errorf("epoch %d %s %s: got %v, want %v", e, p, cmp.name, got, cmp.want)
				}
			}
		}
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.EpochsDone != 2 || man.Epochs[1].SetsDigest != "digest-1" || man.Epochs[1].DrawState != 101 {
		t.Fatalf("manifest mismatch: %+v", man)
	}
	for _, p := range ident.Protocols {
		st, err := os.Stat(filepath.Join(dir, shardName(p)))
		if err != nil {
			t.Fatal(err)
		}
		if got := man.Epochs[1].Offsets[protoKey(p)]; got != st.Size() {
			t.Errorf("%s offset %d, file size %d", protoKey(p), got, st.Size())
		}
	}
}

// TestLogBytesDeterministic pins the property the CI log-diff job asserts:
// identical observations delivered in different arrival orders produce
// byte-for-byte identical shard files and manifests.
func TestLogBytesDeterministic(t *testing.T) {
	batch := []struct {
		src Source
		o   alias.Observation
	}{
		{SourceActive, obs(ident.SSH, "10.0.0.1", "d1")},
		{SourceCensys, obs(ident.SSH, "10.0.0.2", "d2")},
		{SourceActive, obs(ident.BGP, "10.0.0.3", "d3")},
		{SourceActive, obs(ident.SSH, "2001:db8::9", "d4")},
		{SourceCensys, obs(ident.SNMP, "10.0.0.4", "d5")},
		{SourceActive, obs(ident.SSH, "10.0.0.1", "d1")},
	}
	write := func(dir string, reversed bool) {
		w, err := Create(dir, testMeta, Options{SpillThreshold: 2})
		if err != nil {
			t.Fatal(err)
		}
		order := batch
		if reversed {
			order = make([]struct {
				src Source
				o   alias.Observation
			}, len(batch))
			for i, b := range batch {
				order[len(batch)-1-i] = b
			}
		}
		for _, b := range order {
			w.Observe(b.src, b.o.ID.Proto, b.o)
		}
		if err := w.CompleteEpoch(0, "dg", 7); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	write(dirA, false)
	write(dirB, true)
	files := []string{manifestName}
	for _, p := range ident.Protocols {
		files = append(files, shardName(p))
	}
	for _, name := range files {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between arrival orders", name)
		}
	}
}

// writeTwoEpochs populates a log with two committed epochs and returns its
// directory.
func writeTwoEpochs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 2; e++ {
		for i := 0; i < 4; i++ {
			a := fmt.Sprintf("10.%d.0.%d", e, i+1)
			w.Observe(SourceActive, ident.SSH, obs(ident.SSH, a, fmt.Sprintf("ssh-%d-%d", e, i)))
			w.Observe(SourceCensys, ident.BGP, obs(ident.BGP, a, fmt.Sprintf("bgp-%d-%d", e, i)))
			w.Observe(SourceActive, ident.SNMP, obs(ident.SNMP, a, fmt.Sprintf("snmp-%d-%d", e, i)))
		}
		if err := w.CompleteEpoch(e, fmt.Sprintf("dg-%d", e), uint64(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestTruncatedTailDroppedCleanly(t *testing.T) {
	dir := writeTwoEpochs(t)
	path := filepath.Join(dir, shardName(ident.SSH))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-frame: everything after the cut, including epoch
	// 1's marker, becomes unreadable — exactly a SIGKILL's torn tail.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0); err != nil {
		t.Fatalf("epoch 0 must survive a torn tail: %v", err)
	}
	if _, err := Replay(dir, 1); err == nil {
		t.Fatal("epoch 1 lost its marker to the torn tail; Replay must refuse it")
	}
}

func TestCorruptFrameDroppedCleanly(t *testing.T) {
	dir := writeTwoEpochs(t)
	path := filepath.Join(dir, shardName(ident.BGP))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside epoch 1's segment (past epoch 0's committed
	// offset): its CRC fails, so epoch 1 is refused and epoch 0 still reads.
	pos := man.Epochs[0].Offsets["bgp"] + 10
	data[pos] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, 0); err != nil {
		t.Fatalf("epoch 0 must survive later corruption: %v", err)
	}
	if _, err := Replay(dir, 1); err == nil {
		t.Fatal("Replay accepted an epoch containing a corrupt frame")
	}
}

func TestResumeTruncatesPartialEpoch(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testMeta, Options{SpillThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(SourceActive, ident.SSH, obs(ident.SSH, "10.0.0.1", "d1"))
	w.Observe(SourceCensys, ident.BGP, obs(ident.BGP, "10.0.0.2", "d2"))
	w.Observe(SourceActive, ident.SNMP, obs(ident.SNMP, "10.0.0.3", "d3"))
	if err := w.CompleteEpoch(0, "dg-0", 5); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 in flight: some spilled, some in memory — then the process
	// "dies" (no CompleteEpoch, no Close; spill files stay behind).
	for i := 0; i < 5; i++ {
		w.Observe(SourceActive, ident.SSH, obs(ident.SSH, fmt.Sprintf("10.1.0.%d", i+1), "dx"))
	}

	w2, man, err := Resume(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if man.EpochsDone != 1 {
		t.Fatalf("resumed manifest claims %d epochs", man.EpochsDone)
	}
	// The partial epoch's arrivals are gone; a fresh epoch 1 commits.
	w2.Observe(SourceActive, ident.SSH, obs(ident.SSH, "10.9.0.1", "fresh"))
	if err := w2.CompleteEpoch(1, "dg-1", 6); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := Replay(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Active[ident.SSH]) != 1 || snap.Active[ident.SSH][0].ID.Digest != "fresh" {
		t.Fatalf("epoch 1 after resume = %v, want only the fresh record", snap.Active[ident.SSH])
	}
	// Replaying epoch 0 still works and matches the original commit.
	if snap0, err := Replay(dir, 0); err != nil || len(snap0.Active[ident.SSH]) != 1 {
		t.Fatalf("epoch 0 after resume: %v, %v", snap0, err)
	}
}

func TestRollbackDiscardsCommittedEpoch(t *testing.T) {
	dir := writeTwoEpochs(t)
	w, man, err := Resume(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if man.EpochsDone != 2 {
		t.Fatalf("EpochsDone = %d, want 2", man.EpochsDone)
	}
	if err := w.Rollback(1); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadManifest(dir); err != nil || got.EpochsDone != 1 {
		t.Fatalf("after rollback: manifest %+v, %v; want 1 epoch done", got, err)
	}
	// The log can recommit epoch 1 from scratch.
	w.Observe(SourceActive, ident.SSH, obs(ident.SSH, "10.8.0.1", "redo"))
	if err := w.CompleteEpoch(1, "dg-redo", 9); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := Replay(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Active[ident.SSH]) != 1 || snap.Active[ident.SSH][0].ID.Digest != "redo" {
		t.Fatalf("recommitted epoch 1 = %v", snap.Active[ident.SSH])
	}
}

func TestCreateRefusesExistingLog(t *testing.T) {
	dir := writeTwoEpochs(t)
	if _, err := Create(dir, testMeta, Options{}); err == nil {
		t.Fatal("Create reused a directory that already holds a log")
	}
}

// TestReadManifestRejectsBadOffsets: Resume truncates every shard to the
// last committed epoch's offsets, so a manifest naming offsets that are not
// past the header and one epoch marker per epoch must be refused — by
// ReadManifest and by Resume — before any shard byte changes.
func TestReadManifestRejectsBadOffsets(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(m *Manifest)
		want string
	}{
		{"keys renamed", func(m *Manifest) {
			o := m.Epochs[1].Offsets
			m.Epochs[1].Offsets = map[string]int64{"a": o["ssh"], "b": o["bgp"], "c": o["snmpv3"]}
		}, "epoch 1 has no ssh shard offset"},
		{"one key unknown", func(m *Manifest) {
			o := m.Epochs[0].Offsets
			o["snmp"] = o["snmpv3"]
			delete(o, "snmpv3")
		}, "epoch 0 has no snmpv3 shard offset"},
		{"offset inside the header", func(m *Manifest) { m.Epochs[1].Offsets["bgp"] = 3 }, "epoch 1 bgp shard offset 3"},
		{"epoch 0 without a marker", func(m *Manifest) { m.Epochs[0].Offsets["ssh"] = headerSize }, "epoch 0 ssh shard offset"},
		{"epoch 1 not past epoch 0", func(m *Manifest) {
			m.Epochs[1].Offsets["snmpv3"] = m.Epochs[0].Offsets["snmpv3"] + markSize - 1
		}, "epoch 1 snmpv3 shard offset"},
		{"negative offset", func(m *Manifest) { m.Epochs[0].Offsets["bgp"] = -1 }, "epoch 0 bgp shard offset -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeTwoEpochs(t)
			man, err := ReadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(man)
			if err := man.write(dir); err != nil {
				t.Fatal(err)
			}
			before := make(map[string][]byte)
			for _, p := range ident.Protocols {
				data, err := os.ReadFile(filepath.Join(dir, shardName(p)))
				if err != nil {
					t.Fatal(err)
				}
				before[shardName(p)] = data
			}
			if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadManifest = %v, want an error containing %q", err, tc.want)
			}
			if w, _, err := Resume(dir, Options{}); err == nil {
				w.Close()
				t.Fatal("Resume accepted the manifest")
			}
			for name, data := range before {
				after, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(after, data) {
					t.Errorf("%s changed from %d to %d bytes", name, len(data), len(after))
				}
			}
		})
	}
}

func TestEpochOutOfOrderRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, testMeta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.CompleteEpoch(1, "", 0); err == nil {
		t.Fatal("CompleteEpoch accepted a skipped epoch index")
	}
}
