package obsfile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

func sample() []alias.Observation {
	return []alias.Observation{
		{Addr: netip.MustParseAddr("1.0.0.7"), ID: ident.Identifier{Proto: ident.SSH, Digest: "aa"}},
		{Addr: netip.MustParseAddr("2a00::1"), ID: ident.Identifier{Proto: ident.BGP, Digest: "bb"}},
		{Addr: netip.MustParseAddr("10.0.0.1"), ID: ident.Identifier{Proto: ident.SNMP, Digest: "cc"}},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("read %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a4 [4]byte, digestRaw []byte, protoRaw uint8) bool {
		if len(digestRaw) == 0 {
			digestRaw = []byte{1}
		}
		digest := strings.Map(func(r rune) rune {
			return rune("0123456789abcdef"[byte(r)%16])
		}, string(digestRaw))
		obs := []alias.Observation{{
			Addr: netip.AddrFrom4(a4),
			ID: ident.Identifier{
				Proto:  ident.Protocols[int(protoRaw)%len(ident.Protocols)],
				Digest: digest,
			},
		}}
		var buf bytes.Buffer
		if err := Write(&buf, obs); err != nil {
			return false
		}
		got, err := Read(&buf)
		return err == nil && len(got) == 1 && got[0] == obs[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// malformed holds one record of each kind Read must reject.
var malformed = map[string]string{
	"bad json":      `{"addr":`,
	"bad addr":      `{"addr":"not-an-ip","proto":"SSH","digest":"aa"}`,
	"bad proto":     `{"addr":"1.0.0.1","proto":"GOPHER","digest":"aa"}`,
	"empty digest":  `{"addr":"1.0.0.1","proto":"SSH","digest":""}`,
	"missing proto": `{"addr":"1.0.0.1","digest":"aa"}`,
}

func TestReadRejectsMalformed(t *testing.T) {
	for name, in := range malformed {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestReadEmpty(t *testing.T) {
	got, err := Read(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Errorf("empty input: %v %v", got, err)
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	in := `{"addr":"1.0.0.1","proto":"SSH","digest":"aa"}
{"addr":"broken","proto":"SSH","digest":"bb"}`
	_, err := Read(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 reference", err)
	}
}

// referenceRead is the plain decode loop: encoding/json for every record,
// reading at most MaxRecordBytes past the end of the record before, then
// Parse, numbering records as Decoder does. The equivalence tests and
// FuzzRead hold Read to it.
func referenceRead(r io.Reader) ([]alias.Observation, error) {
	src := &boundedReader{r: bufio.NewReader(r), limit: MaxRecordBytes}
	dec := json.NewDecoder(src)
	var out []alias.Observation
	line := 0
	for {
		var rec Record
		err := dec.Decode(&rec)
		src.limit = dec.InputOffset() + MaxRecordBytes
		if err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obsfile: line %d: %w", line+1, err)
		}
		line++
		o, err := Parse(rec)
		if err != nil {
			return nil, fmt.Errorf("obsfile: line %d: %w", line, err)
		}
		out = append(out, o)
	}
}

// boundedReader is referenceRead's input: once it has handed out limit
// bytes, it fails with ErrRecordTooLong.
type boundedReader struct {
	r           io.Reader
	read, limit int64
}

func (b *boundedReader) Read(p []byte) (int, error) {
	if b.read == b.limit {
		return 0, ErrRecordTooLong
	}
	n, err := b.r.Read(p[:min(int64(len(p)), b.limit-b.read)])
	b.read += int64(n)
	return n, err
}

// sameAsReference reports how Read's result on in differs from
// referenceRead's, or "" when the observations and error texts are equal.
func sameAsReference(in []byte, r io.Reader) string {
	got, err := Read(r)
	want, wantErr := referenceRead(bytes.NewReader(in))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", err, wantErr)
	}
	if !slices.Equal(got, want) {
		return fmt.Sprintf("observations %v, reference %v", got, want)
	}
	return ""
}

// Canonical lines for the equivalence table.
const (
	canon1 = `{"addr":"1.0.0.1","proto":"SSH","digest":"aa"}` + "\n"
	canon2 = `{"addr":"2a00::2","proto":"BGP","digest":"bb"}` + "\n"
	canon3 = `{"addr":"10.0.0.3","proto":"SNMPv3","digest":"cc"}` + "\n"
)

// equivalenceCases are streams Read must decode exactly as referenceRead
// does. fast says whether the Decoder reads the whole stream on the
// canonical path, without falling back to encoding/json.
var equivalenceCases = []struct {
	name string
	in   string
	fast bool
}{
	{"empty", "", true},
	{"canonical", canon1 + canon2 + canon3, true},
	{"blank lines", "\n" + canon1 + " \t\r\n\n" + canon2 + "\n", true},
	{"only whitespace", " \n\t\r\n ", true},
	{"crlf", strings.ReplaceAll(canon1+canon2, "\n", "\r\n"), true},
	{"trailing spaces and tabs", strings.ReplaceAll(canon1+canon2, "\n", " \t \n"), true},
	{"no final newline", canon1 + strings.TrimSuffix(canon2, "\n"), true},
	{"ipv6 zone", `{"addr":"fe80::1%eth0","proto":"BGP","digest":"bb"}`, true},
	{"printable ascii digest", `{"addr":"1.0.0.1","proto":"SSH","digest":" !#$%&'()*+,-./:;<=>?@[]^_{|}~"}`, true},
	{"escaped address", `{"addr":"1.0.0.\u0031","proto":"SSH","digest":"aa"}`, false},
	{"escaped slash", canon1 + `{"addr":"1.0.0.2","proto":"SSH","digest":"a\/b"}` + "\n" + canon2, false},
	{"other key order", canon1 + `{"proto":"SSH","addr":"1.0.0.2","digest":"aa"}` + "\n" + canon3, false},
	{"uppercase key", `{"ADDR":"1.0.0.2","proto":"SSH","digest":"aa"}`, false},
	{"title-case keys", `{"Addr":"1.0.0.2","Proto":"SSH","Digest":"aa"}`, false},
	{"unknown field", `{"addr":"1.0.0.2","proto":"SSH","digest":"aa","port":22}`, false},
	{"spaces inside", `{"addr": "1.0.0.2", "proto": "SSH", "digest": "aa"}`, false},
	{"leading space", " " + canon1, false},
	{"non-ascii digest", `{"addr":"1.0.0.2","proto":"SSH","digest":"été"}`, false},
	{"invalid utf-8", "{\"addr\":\"1.0.0.2\",\"proto\":\"SSH\",\"digest\":\"a\xffb\"}", false},
	{"del byte", "{\"addr\":\"1.0.0.2\",\"proto\":\"SSH\",\"digest\":\"a\x7fb\"}", false},
	{"control byte", "{\"addr\":\"1.0.0.2\",\"proto\":\"SSH\",\"digest\":\"a\tb\"}", false},
	{"record spanning lines", canon1 + `{"addr":"1.0.0.2",` + "\n" + `"proto":"SSH","digest":"aa"}` + "\n" + canon2 + canon3, false},
	{"two records on one line", strings.TrimSuffix(canon1, "\n") + canon2 + canon3, false},
	{"trailing garbage", canon1 + strings.TrimSuffix(canon2, "\n") + "x\n" + canon3, false},
	{"bom", "\ufeff" + canon1, false},
	{"longer than the buffer", canon1 + `{"addr":"1.0.0.2","proto":"SSH","digest":"` + strings.Repeat("d", 5000) + `"}` + "\n" + canon2, false},
	{"error past the buffer", canon1 + `{"addr":"1.0.0.2","proto":"SSH","digest":"` + strings.Repeat("d", 5000) + `"}` + "\n" + canon2 + `{"addr":`, false},
	{"null field", `{"addr":null,"proto":"SSH","digest":"aa"}`, false},
	{"null record", canon1 + "null\n" + canon2, false},
	{"duplicate key", `{"addr":"1.0.0.1","proto":"SSH","digest":"aa","addr":"1.0.0.9"}`, false},
	{"empty object", canon1 + "{}\n", false},
	{"array", canon1 + "[]\n", false},
	{"number", canon1 + "1\n", false},
	{"truncated canonical", canon1 + strings.TrimSuffix(canon2, "}\n"), false},
	{"bad json after blank lines", canon1 + "\n\n" + `{"addr":` + "\n", false},
	{"bad address after blank lines", canon1 + "\n\n" + `{"addr":"nope","proto":"SSH","digest":"aa"}` + "\n" + canon2, true},
	{"bad address", canon1 + malformed["bad addr"] + "\n" + canon2, true},
	{"unknown protocol", canon1 + malformed["bad proto"] + "\n" + canon2, true},
	{"empty digest", canon1 + malformed["empty digest"] + "\n" + canon2, true},
	{"missing protocol", canon1 + malformed["missing proto"] + "\n" + canon2, false},
	{"bad json", canon1 + malformed["bad json"], false},
	{"bad address after fallback", `{"proto":"SSH","addr":"1.0.0.2","digest":"aa"}` + "\n" + canon1 + malformed["bad addr"], false},
}

// jsonRecord returns a record of exactly n bytes that the Decoder reads
// through encoding/json (its keys are out of canonical order).
func jsonRecord(n int) string {
	const head, tail = `{"proto":"SSH","addr":"1.0.0.2","digest":"`, `"}`
	return head + strings.Repeat("d", n-len(head)-len(tail)) + tail
}

// blank returns n blank lines.
func blank(n int) string { return strings.Repeat("\n", n) }

// boundCases are streams with a record, or a run of whitespace, just inside
// or just past MaxRecordBytes, counted from the end of the record before it;
// tooLong says which. fast is as in equivalenceCases.
var boundCases = []struct {
	name          string
	in            string
	fast, tooLong bool
}{
	{"blank lines up to the bound", blank(MaxRecordBytes-len(canon1)+1) + canon1, true, false},
	{"blank lines past the bound", blank(MaxRecordBytes-len(canon1)+2) + canon1, true, true},
	{"whitespace below the bound", blank(MaxRecordBytes - 1), true, false},
	{"whitespace at the bound", blank(MaxRecordBytes), true, true},
	{"second record up to the bound", canon1 + blank(MaxRecordBytes-len(canon2)) + canon2, true, false},
	{"second record past the bound", canon1 + blank(MaxRecordBytes-len(canon2)+1) + canon2, true, true},
	{"json record up to the bound", jsonRecord(MaxRecordBytes), false, false},
	{"json record past the bound", jsonRecord(MaxRecordBytes + 1), false, true},
	{"json record after blank lines up to the bound", canon1 + blank(99) + jsonRecord(MaxRecordBytes-100), false, false},
	{"json record after blank lines past the bound", canon1 + blank(99) + jsonRecord(MaxRecordBytes-99), false, true},
	{"json record after a json record up to the bound", jsonRecord(100) + "\n" + jsonRecord(MaxRecordBytes-1), false, false},
	{"json record after a json record past the bound", jsonRecord(100) + "\n" + jsonRecord(MaxRecordBytes), false, true},
	{"line of spaces past the bound", canon1 + strings.Repeat(" ", MaxRecordBytes+1), false, true},
}

// TestRecordBound: Read fails with ErrRecordTooLong exactly on the streams
// with a record or whitespace run past MaxRecordBytes, on the canonical path
// and through encoding/json alike, and agrees with referenceRead on each.
func TestRecordBound(t *testing.T) {
	for _, tc := range boundCases {
		in := []byte(tc.in)
		if diff := sameAsReference(in, bytes.NewReader(in)); diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
		if diff := sameAsReference(in, iotest.OneByteReader(bytes.NewReader(in))); diff != "" {
			t.Errorf("%s, one byte per read: %s", tc.name, diff)
		}
		d := NewDecoder(bytes.NewReader(in))
		var err error
		for err == nil {
			_, err = d.Decode()
		}
		if tooLong := errors.Is(err, ErrRecordTooLong); tooLong != tc.tooLong {
			t.Errorf("%s: error %v, want ErrRecordTooLong: %t", tc.name, err, tc.tooLong)
		}
		if fast := d.js == nil; fast != tc.fast {
			t.Errorf("%s: decoded on the canonical path = %t, want %t", tc.name, fast, tc.fast)
		}
	}
}

// TestReadMatchesReference: on every stream, canonical or not, well-formed
// or not, Read returns the observations and the error text referenceRead
// does, whatever sizes the underlying reader hands out; and the Decoder
// leaves the canonical path exactly on the streams that are not canonical.
func TestReadMatchesReference(t *testing.T) {
	for _, tc := range equivalenceCases {
		in := []byte(tc.in)
		if diff := sameAsReference(in, bytes.NewReader(in)); diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
		if diff := sameAsReference(in, iotest.OneByteReader(bytes.NewReader(in))); diff != "" {
			t.Errorf("%s, one byte per read: %s", tc.name, diff)
		}
		d := NewDecoder(bytes.NewReader(in))
		for {
			if _, err := d.Decode(); err != nil {
				break
			}
		}
		if fast := d.js == nil; fast != tc.fast {
			t.Errorf("%s: decoded on the canonical path = %t, want %t", tc.name, fast, tc.fast)
		}
	}
}

// TestCanonicalEncodingsStayOnFastPath: what Write emits, and the
// json.Marshal(Record{...}) lines the daemon's load test and the benchmark
// send, decode with no fallback to encoding/json, for both address families
// and all three protocols. A change to Record's fields or tags that moved
// them off the canonical form would fail here, not only run slower.
func TestCanonicalEncodingsStayOnFastPath(t *testing.T) {
	obs := append(sample(),
		alias.Observation{Addr: netip.MustParseAddr("2001:db8::5"), ID: ident.Identifier{Proto: ident.SSH, Digest: "dd"}},
		alias.Observation{Addr: netip.MustParseAddr("192.0.2.9"), ID: ident.Identifier{Proto: ident.BGP, Digest: "ee"}},
		alias.Observation{Addr: netip.MustParseAddr("fe80::1%eth0"), ID: ident.Identifier{Proto: ident.SNMP, Digest: "ff"}},
	)
	var written bytes.Buffer
	if err := Write(&written, obs); err != nil {
		t.Fatal(err)
	}
	var marshalled bytes.Buffer
	for _, o := range obs {
		line, err := json.Marshal(Record{Addr: o.Addr.String(), Proto: o.ID.Proto.String(), Digest: o.ID.Digest})
		if err != nil {
			t.Fatal(err)
		}
		marshalled.Write(append(line, '\n'))
	}
	for name, stream := range map[string][]byte{"Write": written.Bytes(), "json.Marshal": marshalled.Bytes()} {
		d := NewDecoder(bytes.NewReader(stream))
		var got []alias.Observation
		for {
			o, err := d.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d.js != nil {
				t.Fatalf("%s: record %d left the canonical path: %q", name, len(got)+1, stream)
			}
			got = append(got, o)
		}
		if !slices.Equal(got, obs) {
			t.Errorf("%s: decoded %v, want %v", name, got, obs)
		}
	}
}

// FuzzRead: no input makes Read panic, and every input decodes to the
// observations and error text referenceRead gives.
func FuzzRead(f *testing.F) {
	for _, tc := range equivalenceCases {
		f.Add([]byte(tc.in))
	}
	for _, in := range malformed {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if diff := sameAsReference(in, bytes.NewReader(in)); diff != "" {
			t.Fatalf("%q: %s", in, diff)
		}
	})
}
