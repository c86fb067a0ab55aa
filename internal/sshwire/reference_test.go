package sshwire

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// The straightforward codec the allocation-lean one replaced, kept as the
// reference the differential tests below hold it to.

// readNameList decodes an SSH name-list from the front of b: nil when the
// list is empty, otherwise a copy split at every comma.
func readNameList(b []byte) (names []string, rest []byte, err error) {
	s, rest, err := ReadString(b)
	if err != nil {
		return nil, nil, err
	}
	if len(s) == 0 {
		return nil, rest, nil
	}
	return strings.Split(string(s), ","), rest, nil
}

// parseKexInitRef decodes a KEXINIT payload one readNameList at a time.
func parseKexInitRef(payload []byte) (*KexInit, error) {
	if len(payload) < 1 || payload[0] != MsgKexInit {
		return nil, fmt.Errorf("%w: not a KEXINIT", ErrBadPacket)
	}
	b := payload[1:]
	if len(b) < 16 {
		return nil, ErrShortBuffer
	}
	var k KexInit
	copy(k.Cookie[:], b[:16])
	b = b[16:]
	lists := make([][]string, 10)
	var err error
	for i := range lists {
		lists[i], b, err = readNameList(b)
		if err != nil {
			return nil, fmt.Errorf("sshwire: KEXINIT name-list %d: %w", i, err)
		}
	}
	k.KexAlgorithms = lists[0]
	k.ServerHostKeyAlgorithms = lists[1]
	k.EncryptionClientToServer = lists[2]
	k.EncryptionServerToClient = lists[3]
	k.MACClientToServer = lists[4]
	k.MACServerToClient = lists[5]
	k.CompressionClientToServer = lists[6]
	k.CompressionServerToClient = lists[7]
	k.LanguagesClientToServer = lists[8]
	k.LanguagesServerToClient = lists[9]
	if len(b) < 5 {
		return nil, ErrShortBuffer
	}
	k.FirstKexPacketFollows = b[0] != 0
	k.Reserved, _, _ = ReadUint32(b[1:])
	return &k, nil
}

// appendNameListRef joins the names, then appends them as an SSH string.
func appendNameListRef(dst []byte, names []string) []byte {
	return AppendString(dst, []byte(strings.Join(names, ",")))
}

// exchangeHashRef appends the eight fields to one buffer and hashes it.
func exchangeHashRef(vc, vs string, ic, is, ks, qc, qs, k []byte) []byte {
	var buf []byte
	buf = AppendString(buf, []byte(vc))
	buf = AppendString(buf, []byte(vs))
	buf = AppendString(buf, ic)
	buf = AppendString(buf, is)
	buf = AppendString(buf, ks)
	buf = AppendString(buf, qc)
	buf = AppendString(buf, qs)
	buf = AppendMpint(buf, k)
	sum := sha256.Sum256(buf)
	return sum[:]
}

// checkParseKexInit fails t unless ParseKexInit and the reference return
// equal values, or errors with equal text, for payload.
func checkParseKexInit(t *testing.T, payload []byte) {
	t.Helper()
	got, err := ParseKexInit(payload)
	want, wantErr := parseKexInitRef(payload)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseKexInit(%x): error %v, reference %v", payload, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseKexInit(%x) = %+v, reference %+v", payload, got, want)
	}
}

// kexInitPayload frames ten raw name-list strings as a KEXINIT payload.
func kexInitPayload(lists [10]string) []byte {
	out := append([]byte{MsgKexInit}, make([]byte, 16)...)
	for _, l := range lists {
		out = AppendString(out, []byte(l))
	}
	return append(out, 1, 0, 0, 0, 7)
}

// TestParseKexInitMatchesReference holds the one-copy decoder to the
// list-at-a-time reference on empty lists, empty names, leading and
// trailing commas, and on random lists over a comma-rich alphabet.
func TestParseKexInitMatchesReference(t *testing.T) {
	for _, lists := range [][10]string{
		{},
		{"a"},
		{"a,,b", "a,", ",a", ",", ",,", "", "x", "", "en", ""},
		{9: "a,"},
		{"curve25519-sha256,curve25519-sha256@libssh.org", "ssh-ed25519", "aes128-ctr", "aes128-ctr",
			"hmac-sha2-256", "hmac-sha2-256", "none", "none", "", ""},
	} {
		payload := kexInitPayload(lists)
		checkParseKexInit(t, payload)
		got, _ := ParseKexInit(payload)
		for i, list := range got.nameLists() {
			if want := lists[i]; strings.Join(*list, ",") != want || (*list == nil) != (want == "") {
				t.Errorf("list %d of %q = %q", i, lists, *list)
			}
		}
		// Every list's capacity ends at its own names: appending to one
		// must not overwrite the next.
		got.KexAlgorithms = append(got.KexAlgorithms, "appended")
		if fresh, _ := ParseKexInit(payload); !reflect.DeepEqual(got.ServerHostKeyAlgorithms, fresh.ServerHostKeyAlgorithms) {
			t.Errorf("appending to the kex list changed the host key list: %q", got.ServerHostKeyAlgorithms)
		}
	}
	f := func(raw [10][]byte) bool {
		var lists [10]string
		for i, r := range raw {
			for _, c := range r {
				lists[i] += string("ab,"[c%3])
			}
		}
		checkParseKexInit(t, kexInitPayload(lists))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAppendNameListMatchesReference holds AppendNameList to strings.Join.
func TestAppendNameListMatchesReference(t *testing.T) {
	cases := [][]string{nil, {}, {""}, {"", ""}, {"a"}, {"a", ""}, {"", "a"}, {"a", "", "b"}}
	for _, p := range Profiles {
		cases = append(cases, p.Algorithms.Kex, p.Algorithms.MAC)
	}
	for _, names := range cases {
		prefix := []byte{0xee}
		got := AppendNameList(prefix, names)
		if want := appendNameListRef(prefix, names); !bytes.Equal(got, want) {
			t.Errorf("AppendNameList(%q) = %x, reference %x", names, got, want)
		}
	}
	f := func(names []string) bool {
		return bytes.Equal(AppendNameList(nil, names), appendNameListRef(nil, names))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExchangeHashMatchesReference holds the streamed exchange hash to the
// append-then-hash reference, on shared secrets whose mpint encoding strips
// leading zero bytes or adds one for a set high bit, and on fields too long
// for the stack buffer.
func TestExchangeHashMatchesReference(t *testing.T) {
	var cookie [16]byte
	ic := DefaultClientAlgorithms().KexInit(cookie).Marshal()
	is := Profiles[0].Algorithms.KexInit(cookie).Marshal()
	ks := MarshalEd25519PublicKey(make([]byte, 32))
	q := bytes.Repeat([]byte{0x5a}, 32)
	secret := func(head ...byte) []byte { return append(head, bytes.Repeat([]byte{0x11}, 32-len(head))...) }
	long := strings.Repeat("SSH-2.0-", 80)
	for _, tc := range []struct {
		name   string
		vc, vs string
		ks, k  []byte
	}{
		{"plain", ClientBanner, Profiles[0].Banner, ks, secret(0x42)},
		{"leading zero", ClientBanner, Profiles[0].Banner, ks, secret(0x00, 0x42)},
		{"leading zeros to high bit", ClientBanner, Profiles[0].Banner, ks, secret(0x00, 0x00, 0x80)},
		{"high bit", ClientBanner, Profiles[0].Banner, ks, secret(0x80)},
		{"all ones", ClientBanner, Profiles[0].Banner, ks, bytes.Repeat([]byte{0xff}, 32)},
		{"zero", ClientBanner, Profiles[0].Banner, ks, make([]byte, 32)},
		{"empty", "", "", nil, nil},
		{"long banners", long, long, ks, secret(0x80)},
		{"long host key", ClientBanner, Profiles[0].Banner, bytes.Repeat(ks, 20), secret(0xff)},
		{"long secret", ClientBanner, Profiles[0].Banner, ks, bytes.Repeat([]byte{0x80}, 600)},
	} {
		got := exchangeHash(tc.vc, tc.vs, ic, is, tc.ks, q, q, tc.k)
		if want := exchangeHashRef(tc.vc, tc.vs, ic, is, tc.ks, q, q, tc.k); !bytes.Equal(got, want) {
			t.Errorf("%s: exchangeHash = %x, reference %x", tc.name, got, want)
		}
	}
	f := func(vc, vs string, ic, is, ks, qc, qs, k []byte) bool {
		return bytes.Equal(exchangeHash(vc, vs, ic, is, ks, qc, qs, k), exchangeHashRef(vc, vs, ic, is, ks, qc, qs, k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
