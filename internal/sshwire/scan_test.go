package sshwire_test

import (
	"bufio"
	"bytes"
	"crypto/ed25519"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"aliaslimit/internal/ident"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/sshwire"
)

// wireConn is an in-memory net.Conn whose far end is a fixed byte string:
// reads drain it, writes vanish and deadlines are ignored. No goroutine
// serves the other side, so a Scan over it depends on nothing but the bytes.
type wireConn struct{ r *bytes.Reader }

func newWireConn(b []byte) wireConn { return wireConn{bytes.NewReader(b)} }

func (c wireConn) Read(p []byte) (int, error)     { return c.r.Read(p) }
func (wireConn) Write(p []byte) (int, error)      { return len(p), nil }
func (wireConn) Close() error                     { return nil }
func (wireConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (wireConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (wireConn) SetDeadline(time.Time) error      { return nil }
func (wireConn) SetReadDeadline(time.Time) error  { return nil }
func (wireConn) SetWriteDeadline(time.Time) error { return nil }

// tapConn records every byte read through it.
type tapConn struct {
	net.Conn
	got bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.got.Write(p[:n])
	return n, err
}

func newHostKey(t testing.TB) ed25519.PrivateKey {
	t.Helper()
	_, priv, err := sshwire.GenerateEd25519(nil)
	if err != nil {
		t.Fatalf("GenerateEd25519: %v", err)
	}
	return priv
}

// scanGenuine scans a genuine server holding key and returns the result with
// the bytes each side sent: the server's transcript and the scanner's.
func scanGenuine(t testing.TB, key ed25519.PrivateKey) (res *sshwire.ScanResult, fromServer, fromScanner []byte) {
	t.Helper()
	p := sshwire.Profiles[0]
	client, server := net.Pipe()
	cli, srv := &tapConn{Conn: client}, &tapConn{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sshwire.NewServer(sshwire.ServerConfig{Banner: p.Banner, Algorithms: p.Algorithms, HostKey: key}).
			Serve(srv, netsim.ServeContext{LocalAddr: netip.MustParseAddr("192.0.2.1")})
	}()
	res, err := sshwire.Scan(cli, sshwire.ScanConfig{Timeout: 2 * time.Second})
	<-done
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !res.SignatureValid {
		t.Fatal("genuine handshake did not verify")
	}
	return res, cli.got.Bytes(), srv.got.Bytes()
}

// scannerKex parses the scanner's side of a handshake, its banner, KEXINIT
// and ECDH_INIT, and returns the KEXINIT cookie and the point Q_C.
func scannerKex(t *testing.T, sent []byte) (cookie [16]byte, qc []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(sent))
	if _, err := sshwire.ReadBanner(br); err != nil {
		t.Fatalf("scanner banner: %v", err)
	}
	payload, err := sshwire.ReadPacket(br)
	if err != nil {
		t.Fatalf("scanner KEXINIT: %v", err)
	}
	ki, err := sshwire.ParseKexInit(payload)
	if err != nil {
		t.Fatalf("scanner KEXINIT: %v", err)
	}
	payload, err = sshwire.ReadPacket(br)
	if err != nil || len(payload) == 0 || payload[0] != sshwire.MsgKexECDHInit {
		t.Fatalf("scanner ECDH_INIT: %x, %v", payload, err)
	}
	qc, _, err = sshwire.ReadString(payload[1:])
	if err != nil {
		t.Fatalf("scanner ECDH_INIT point: %v", err)
	}
	return ki.Cookie, qc
}

// TestScanSharesKeyFreshCookie pins the scanner's key discipline: every Scan
// in a process sends the same X25519 point Q_C, and each draws a fresh
// KEXINIT cookie, which keeps every exchange hash unique.
func TestScanSharesKeyFreshCookie(t *testing.T) {
	key := newHostKey(t)
	_, _, first := scanGenuine(t, key)
	_, _, second := scanGenuine(t, key)
	cookie1, qc1 := scannerKex(t, first)
	cookie2, qc2 := scannerKex(t, second)
	if !bytes.Equal(qc1, qc2) {
		t.Errorf("Q_C differs between scans: %x vs %x", qc1, qc2)
	}
	if cookie1 == cookie2 {
		t.Errorf("two scans sent the same KEXINIT cookie %x", cookie1)
	}
}

// TestReplayedTranscriptYieldsNoIdentifier replays a genuine server's banner,
// KEXINIT and ECDH_REPLY to a second Scan. The replay offers the same host
// key, and with the shared client key it even reaches the same shared
// secret; only the scanner's cookie differs, and that alone must make the
// recorded signature fail.
func TestReplayedTranscriptYieldsNoIdentifier(t *testing.T) {
	genuine, transcript, _ := scanGenuine(t, newHostKey(t))
	res, err := sshwire.Scan(newWireConn(transcript), sshwire.ScanConfig{})
	if err != nil {
		t.Fatalf("Scan of the replay: %v", err)
	}
	if !res.KexCompleted || res.HostKeyFingerprint != genuine.HostKeyFingerprint {
		t.Fatalf("replay did not reach the signature check: %+v", res)
	}
	if res.SignatureValid {
		t.Error("a recorded signature verified a second time")
	}
	if _, ok := ident.FromSSH(res); ok {
		t.Error("a replayed transcript yielded an identifier")
	}
}

// TestBorrowedHostKeyYieldsNoIdentifier has a responder present host key A.
// Only the one holding A's private key may get A's identifier; one signing
// with key B would otherwise merge into A's alias set.
func TestBorrowedHostKeyYieldsNoIdentifier(t *testing.T) {
	a, b := newHostKey(t), newHostKey(t)
	for _, tc := range []struct {
		name   string
		signer ed25519.PrivateKey
		want   bool
	}{
		{"holds the key", a, true},
		{"signs with another key", b, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				sshwire.ServeSignedBy(server, a.Public().(ed25519.PublicKey), tc.signer)
			}()
			res, err := sshwire.Scan(client, sshwire.ScanConfig{Timeout: 2 * time.Second})
			<-done
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			wantFP := sshwire.Fingerprint(sshwire.MarshalEd25519PublicKey(a.Public().(ed25519.PublicKey)))
			if !res.KexCompleted || res.HostKeyFingerprint != wantFP {
				t.Fatalf("scan did not capture the presented key: %+v", res)
			}
			if res.SignatureValid != tc.want {
				t.Errorf("SignatureValid = %v, want %v", res.SignatureValid, tc.want)
			}
			if _, ok := ident.FromSSH(res); ok != tc.want {
				t.Errorf("FromSSH ok = %v, want %v", ok, tc.want)
			}
		})
	}
}

// FuzzScan runs the scanner against arbitrary server bytes. No input may
// panic or hang it, a result it returns carries an SSH banner, and no input
// yields identifier material: a valid signature would have to cover the
// fresh cookie of the scan reading it.
func FuzzScan(f *testing.F) {
	_, transcript, _ := scanGenuine(f, newHostKey(f))
	for i := 0; i <= 16; i++ {
		f.Add(transcript[:len(transcript)*i/16])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		res, _ := sshwire.Scan(newWireConn(in), sshwire.ScanConfig{})
		if res == nil {
			return
		}
		if !strings.HasPrefix(res.Banner, "SSH-") {
			t.Errorf("banner %q lacks the SSH- prefix", res.Banner)
		}
		if res.HasIdentifierMaterial() {
			t.Errorf("identifier material from replayable bytes: %+v", res)
		}
	})
}
