package sshwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestStringRoundTrip(t *testing.T) {
	f := func(s []byte) bool {
		enc := AppendString(nil, s)
		got, rest, err := ReadString(enc)
		return err == nil && bytes.Equal(got, s) && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		got, rest, err := ReadUint32(AppendUint32(nil, v))
		return err == nil && got == v && len(rest) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadStringErrors(t *testing.T) {
	if _, _, err := ReadString([]byte{0, 0}); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short length prefix: %v", err)
	}
	if _, _, err := ReadString(AppendUint32(nil, 10)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("length beyond buffer: %v", err)
	}
}

func TestNameListRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{"curve25519-sha256"},
		{"aes128-ctr", "aes192-ctr", "aes256-ctr"},
	}
	for _, names := range cases {
		enc := AppendNameList(nil, names)
		got, rest, err := readNameList(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("readNameList(%v): %v", names, err)
		}
		if strings.Join(got, ",") != strings.Join(names, ",") {
			t.Errorf("round trip %v -> %v", names, got)
		}
	}
}

func TestMpintEncoding(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte // wire bytes after the length prefix
	}{
		{nil, nil},                         // zero -> empty
		{[]byte{0, 0}, nil},                // leading zeros stripped to zero
		{[]byte{0x7f}, []byte{0x7f}},       // high bit clear: as-is
		{[]byte{0x80}, []byte{0x00, 0x80}}, // high bit set: leading zero added
		{[]byte{0x00, 0x01}, []byte{0x01}}, // minimal form
	}
	for _, tc := range cases {
		enc := AppendMpint(nil, tc.in)
		got, rest, err := ReadString(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("mpint decode: %v", err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("AppendMpint(%x) payload = %x, want %x", tc.in, got, tc.want)
		}
	}
}

func TestMpintNeverNegativeProperty(t *testing.T) {
	f := func(b []byte) bool {
		enc := AppendMpint(nil, b)
		payload, _, err := ReadString(enc)
		if err != nil {
			return false
		}
		// Encoded mpints must be non-negative (first byte high bit clear)
		// and minimal (no redundant leading zero).
		if len(payload) == 0 {
			return true
		}
		if payload[0]&0x80 != 0 {
			return false
		}
		if len(payload) >= 2 && payload[0] == 0 && payload[1]&0x80 == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > MaxPacketLen {
			payload = payload[:MaxPacketLen]
		}
		var buf bytes.Buffer
		if err := WritePacket(&buf, payload); err != nil {
			return false
		}
		// Total length must be a multiple of the pre-NEWKEYS block size.
		if buf.Len()%8 != 0 {
			return false
		}
		got, err := ReadPacket(&buf)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPacketTooLong(t *testing.T) {
	if err := WritePacket(io.Discard, make([]byte, MaxPacketLen+1)); !errors.Is(err, ErrTooLong) {
		t.Errorf("oversized payload: %v", err)
	}
}

func TestReadPacketMalformed(t *testing.T) {
	// Padding >= packet length.
	bad := AppendUint32(nil, 5)
	bad = append(bad, 200, 0, 0, 0, 0)
	if _, err := ReadPacket(bytes.NewReader(bad)); !errors.Is(err, ErrBadPacket) {
		t.Errorf("bad padding: %v", err)
	}
	// Packet length zero.
	bad2 := AppendUint32(nil, 0)
	bad2 = append(bad2, 4)
	if _, err := ReadPacket(bytes.NewReader(bad2)); !errors.Is(err, ErrBadPacket) {
		t.Errorf("zero length: %v", err)
	}
	// Giant packet length.
	bad3 := AppendUint32(nil, MaxPacketLen+100)
	bad3 = append(bad3, 4)
	if _, err := ReadPacket(bytes.NewReader(bad3)); !errors.Is(err, ErrBadPacket) {
		t.Errorf("giant length: %v", err)
	}
	// Truncated body.
	tr := AppendUint32(nil, 100)
	tr = append(tr, 4, 1, 2, 3)
	if _, err := ReadPacket(bytes.NewReader(tr)); err == nil {
		t.Error("truncated body: want error")
	}
}

func TestBannerExchange(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBanner(&buf, "SSH-2.0-Test_1.0"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBanner(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got != "SSH-2.0-Test_1.0" {
		t.Errorf("banner = %q", got)
	}
	if err := WriteBanner(io.Discard, "HTTP/1.1"); !errors.Is(err, ErrBadBanner) {
		t.Errorf("non-SSH banner: %v", err)
	}
}

func TestReadBannerSkipsPreLines(t *testing.T) {
	in := "Welcome to example.net\r\nPlease behave.\nSSH-2.0-OpenSSH_9.2\r\n"
	got, err := ReadBanner(bufio.NewReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if got != "SSH-2.0-OpenSSH_9.2" {
		t.Errorf("banner = %q", got)
	}
}

func TestReadBannerGivesUp(t *testing.T) {
	in := strings.Repeat("noise line\n", 40)
	if _, err := ReadBanner(bufio.NewReader(strings.NewReader(in))); !errors.Is(err, ErrBadBanner) {
		t.Errorf("33+ noise lines: %v", err)
	}
	long := strings.Repeat("x", MaxBannerLen+10) + "\n"
	if _, err := ReadBanner(bufio.NewReader(strings.NewReader(long))); !errors.Is(err, ErrBadBanner) {
		t.Errorf("overlong line: %v", err)
	}
	if _, err := ReadBanner(bufio.NewReader(strings.NewReader("SSH-"))); err == nil {
		t.Error("EOF before newline: want error")
	}
}

func TestKexInitRoundTrip(t *testing.T) {
	var cookie [16]byte
	for i := range cookie {
		cookie[i] = byte(i)
	}
	k := Profiles[0].Algorithms.KexInit(cookie)
	k.FirstKexPacketFollows = true
	k.LanguagesClientToServer = []string{"en"}
	payload := k.Marshal()
	got, err := ParseKexInit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), payload) {
		t.Error("KEXINIT re-marshal differs")
	}
	if !got.FirstKexPacketFollows {
		t.Error("FirstKexPacketFollows lost")
	}
	if got.Cookie != cookie {
		t.Error("cookie lost")
	}
	if strings.Join(got.KexAlgorithms, ",") != strings.Join(k.KexAlgorithms, ",") {
		t.Error("kex list lost")
	}
}

func TestParseKexInitErrors(t *testing.T) {
	if _, err := ParseKexInit([]byte{MsgNewKeys}); err == nil {
		t.Error("wrong message number: want error")
	}
	if _, err := ParseKexInit([]byte{MsgKexInit, 1, 2}); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short cookie: %v", err)
	}
	// Cookie present but lists truncated.
	buf := append([]byte{MsgKexInit}, make([]byte, 16)...)
	buf = append(buf, 0, 0, 0, 9) // name-list claims 9 bytes, none follow
	if _, err := ParseKexInit(buf); err == nil {
		t.Error("truncated name-list: want error")
	}
	// All lists but missing trailer.
	ok := (&KexInit{}).Marshal()
	if _, err := ParseKexInit(ok[:len(ok)-3]); err == nil {
		t.Error("truncated trailer: want error")
	}
}

func TestNegotiate(t *testing.T) {
	server := []string{"c", "a", "b"}
	if got, ok := negotiate([]string{"x", "b", "a"}, server); !ok || got != "b" {
		t.Errorf("negotiate = %q,%v; want b (client preference wins)", got, ok)
	}
	if _, ok := negotiate([]string{"x"}, server); ok {
		t.Error("no overlap should fail")
	}
	if _, ok := negotiate(nil, server); ok {
		t.Error("empty client list should fail")
	}
}

func TestProfileByName(t *testing.T) {
	if p := ProfileByName("dropbear-2022"); p == nil || p.Banner != "SSH-2.0-dropbear_2022.83" {
		t.Errorf("ProfileByName(dropbear-2022) = %+v", p)
	}
	if p := ProfileByName("nope"); p != nil {
		t.Errorf("unknown profile = %+v, want nil", p)
	}
	// Every profile must be able to negotiate with the default client offer.
	client := DefaultClientAlgorithms()
	for _, p := range Profiles {
		if _, ok := negotiate(client.Kex, p.Algorithms.Kex); !ok {
			t.Errorf("profile %s: no common kex with scanner", p.Name)
		}
		if _, ok := negotiate(client.HostKey, p.Algorithms.HostKey); !ok {
			t.Errorf("profile %s: no common host key with scanner", p.Name)
		}
	}
}

func TestAlgorithmsClone(t *testing.T) {
	a := Profiles[0].Algorithms
	b := a.Clone()
	b.MAC[0] = "mutated"
	if a.MAC[0] == "mutated" {
		t.Error("Clone shares backing arrays")
	}
}
