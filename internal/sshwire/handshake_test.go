package sshwire

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"net"
	"net/netip"
	"testing"
	"time"

	"aliaslimit/internal/netsim"
	"aliaslimit/internal/xrand"
)

// detRand adapts a SplitMix64 stream to io.Reader for deterministic keys.
type detRand struct{ s *xrand.SplitMix64 }

func newDetRand(seed uint64) *detRand { return &detRand{s: xrand.NewSplitMix64(seed)} }

func (r *detRand) Read(p []byte) (int, error) {
	var buf [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(buf[:], r.s.Uint64())
		copy(p[i:], buf[:])
	}
	return len(p), nil
}

func testHostKey(t testing.TB, seed uint64) ed25519.PrivateKey {
	t.Helper()
	_, priv, err := GenerateEd25519(newDetRand(seed))
	if err != nil {
		t.Fatalf("GenerateEd25519: %v", err)
	}
	return priv
}

// runHandshake wires a server to one end of a pipe and scans the other.
func runHandshake(t *testing.T, srvCfg ServerConfig, cliCfg ScanConfig) (*ScanResult, error) {
	t.Helper()
	client, server := net.Pipe()
	go NewServer(srvCfg).Serve(server, netsim.ServeContext{LocalAddr: netip.MustParseAddr("192.0.2.1")})
	return Scan(client, cliCfg)
}

func TestFullHandshake(t *testing.T) {
	for _, p := range Profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			key := testHostKey(t, 1)
			res, err := runHandshake(t, ServerConfig{
				Banner:     p.Banner,
				Algorithms: p.Algorithms,
				HostKey:    key,
				Rand:       newDetRand(2),
			}, ScanConfig{Timeout: 2 * time.Second})
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if !res.HasIdentifierMaterial() {
				t.Fatalf("missing identifier material: %+v", res)
			}
			if res.Banner != p.Banner {
				t.Errorf("banner = %q, want %q", res.Banner, p.Banner)
			}
			if !res.KexCompleted {
				t.Error("kex did not complete")
			}
			if res.HostKeyAlgo != HostKeyEd25519 {
				t.Errorf("host key algo = %q", res.HostKeyAlgo)
			}
			if !res.SignatureValid {
				t.Error("host key signature did not verify")
			}
			wantBlob := MarshalEd25519PublicKey(key.Public().(ed25519.PublicKey))
			if !bytes.Equal(res.HostKeyBlob, wantBlob) {
				t.Error("host key blob mismatch")
			}
			if res.HostKeyFingerprint != Fingerprint(wantBlob) {
				t.Error("fingerprint mismatch")
			}
			// The server's preference-ordered lists must arrive verbatim:
			// they are the first half of the paper's identifier.
			if got, want := res.KexInit.KexAlgorithms, p.Algorithms.Kex; !equalStrings(got, want) {
				t.Errorf("kex list = %v, want %v", got, want)
			}
			if got, want := res.KexInit.MACServerToClient, p.Algorithms.MAC; !equalStrings(got, want) {
				t.Errorf("mac list = %v, want %v", got, want)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSameKeyDifferentInterfacesSameFingerprint(t *testing.T) {
	// The whole premise of the paper's SSH identifier: one host, many
	// addresses, a single host key.
	key := testHostKey(t, 7)
	p := Profiles[0]
	var fps []string
	for i := 0; i < 3; i++ {
		res, err := runHandshake(t, ServerConfig{
			Banner: p.Banner, Algorithms: p.Algorithms, HostKey: key, Rand: newDetRand(uint64(10 + i)),
		}, ScanConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, res.HostKeyFingerprint)
	}
	if fps[0] != fps[1] || fps[1] != fps[2] {
		t.Errorf("fingerprints differ across connections: %v", fps)
	}
}

func TestDifferentKeysDifferentFingerprints(t *testing.T) {
	p := Profiles[0]
	mk := func(seed uint64) string {
		res, err := runHandshake(t, ServerConfig{
			Banner: p.Banner, Algorithms: p.Algorithms, HostKey: testHostKey(t, seed), Rand: newDetRand(seed + 100),
		}, ScanConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.HostKeyFingerprint
	}
	if mk(1) == mk(2) {
		t.Error("distinct host keys produced identical fingerprints")
	}
}

func TestPerInterfaceAlgorithmVariation(t *testing.T) {
	// Models the paper's 0.4% of hosts whose capability sets differ across
	// interfaces: same key, different KEXINIT per address.
	key := testHostKey(t, 5)
	p := Profiles[1]
	varied := p.Algorithms.Clone()
	varied.MAC = varied.MAC[:len(varied.MAC)-2]
	special := netip.MustParseAddr("192.0.2.1")
	cfg := ServerConfig{
		Banner:  p.Banner,
		HostKey: key,
		Rand:    newDetRand(1),
		AlgorithmsFor: func(a netip.Addr) Algorithms {
			if a == special {
				return varied
			}
			return p.Algorithms
		},
	}

	scanAt := func(addr netip.Addr) *ScanResult {
		client, server := net.Pipe()
		go NewServer(cfg).Serve(server, netsim.ServeContext{LocalAddr: addr})
		res, err := Scan(client, ScanConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := scanAt(special)
	r2 := scanAt(netip.MustParseAddr("192.0.2.2"))
	if equalStrings(r1.KexInit.MACServerToClient, r2.KexInit.MACServerToClient) {
		t.Error("per-interface variation not visible in KEXINIT")
	}
	if r1.HostKeyFingerprint != r2.HostKeyFingerprint {
		t.Error("host key should be identical across interfaces")
	}
}

func TestNoCommonAlgorithmsYieldsPartialResult(t *testing.T) {
	p := Profiles[0]
	key := testHostKey(t, 3)
	res, err := runHandshake(t, ServerConfig{
		Banner: p.Banner, Algorithms: p.Algorithms, HostKey: key, Rand: newDetRand(4),
	}, ScanConfig{
		Algorithms: Algorithms{
			Kex:         []string{"diffie-hellman-group1-sha1"},
			HostKey:     []string{"ssh-dss"},
			Encryption:  []string{"3des-cbc"},
			MAC:         []string{"hmac-md5"},
			Compression: []string{"none"},
		},
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if res.Banner != p.Banner || res.KexInit == nil {
		t.Error("partial result should still carry banner and KEXINIT")
	}
	if res.KexCompleted || len(res.HostKeyBlob) != 0 {
		t.Error("no-common-algorithms must not complete kex")
	}
	if res.HasIdentifierMaterial() {
		t.Error("partial result must not claim full identifier material")
	}
}

func TestScanAgainstGarbageServer(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		server.Write([]byte("220 smtp.example.net ESMTP\r\n"))
		buf := make([]byte, 64)
		server.Read(buf)
	}()
	if _, err := Scan(client, ScanConfig{Timeout: 200 * time.Millisecond}); err == nil {
		t.Error("SMTP banner should fail the SSH scan")
	}
}

func TestScanTimeoutOnSilentServer(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	start := time.Now()
	_, err := Scan(client, ScanConfig{Timeout: 100 * time.Millisecond})
	if err == nil {
		t.Error("silent server: want error")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout not respected")
	}
}

func TestHostKeyBlobCodec(t *testing.T) {
	key := testHostKey(t, 11)
	pub := key.Public().(ed25519.PublicKey)
	blob := MarshalEd25519PublicKey(pub)

	algo, raw, err := ParsePublicKeyBlob(blob)
	if err != nil || algo != HostKeyEd25519 {
		t.Fatalf("ParsePublicKeyBlob: %v %q", err, algo)
	}
	if len(raw) != 4+ed25519.PublicKeySize {
		t.Errorf("raw remainder length = %d", len(raw))
	}
	got, err := ParseEd25519PublicKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pub) {
		t.Error("round-tripped key differs")
	}

	if _, err := ParseEd25519PublicKey(append(blob, 0)); err == nil {
		t.Error("trailing bytes: want error")
	}
	wrong := AppendString(nil, []byte("ssh-rsa"))
	wrong = AppendString(wrong, make([]byte, 32))
	if _, err := ParseEd25519PublicKey(wrong); err == nil {
		t.Error("wrong algorithm: want error")
	}
	shortKey := AppendString(nil, []byte(HostKeyEd25519))
	shortKey = AppendString(shortKey, make([]byte, 16))
	if _, err := ParseEd25519PublicKey(shortKey); err == nil {
		t.Error("short key: want error")
	}
}

func TestSignatureBlobCodec(t *testing.T) {
	sig := make([]byte, ed25519.SignatureSize)
	blob := MarshalEd25519Signature(sig)
	algo, got, err := ParseSignatureBlob(blob)
	if err != nil || algo != HostKeyEd25519 || !bytes.Equal(got, sig) {
		t.Errorf("signature blob round trip failed: %v %q", err, algo)
	}
	if _, _, err := ParseSignatureBlob(blob[:5]); err == nil {
		t.Error("truncated signature blob: want error")
	}
	if _, _, err := ParseSignatureBlob(append(blob, 1)); err == nil {
		t.Error("trailing bytes: want error")
	}
}

func TestFingerprintFormat(t *testing.T) {
	fp := Fingerprint([]byte("some blob"))
	if len(fp) < 8 || fp[:7] != "SHA256:" {
		t.Errorf("fingerprint = %q, want SHA256: prefix", fp)
	}
	if fp != Fingerprint([]byte("some blob")) {
		t.Error("fingerprint not deterministic")
	}
}

func TestExchangeHashSensitivity(t *testing.T) {
	base := exchangeHash("VC", "VS", []byte("IC"), []byte("IS"), []byte("KS"), []byte("QC"), []byte("QS"), []byte{1})
	variants := [][]byte{
		exchangeHash("VX", "VS", []byte("IC"), []byte("IS"), []byte("KS"), []byte("QC"), []byte("QS"), []byte{1}),
		exchangeHash("VC", "VS", []byte("IX"), []byte("IS"), []byte("KS"), []byte("QC"), []byte("QS"), []byte{1}),
		exchangeHash("VC", "VS", []byte("IC"), []byte("IS"), []byte("KX"), []byte("QC"), []byte("QS"), []byte{1}),
		exchangeHash("VC", "VS", []byte("IC"), []byte("IS"), []byte("KS"), []byte("QC"), []byte("QS"), []byte{2}),
	}
	for i, v := range variants {
		if bytes.Equal(base, v) {
			t.Errorf("variant %d did not change the exchange hash", i)
		}
	}
}
