package sshwire

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"

	"aliaslimit/internal/netsim"
)

// TestParseKexInitNeverPanics feeds arbitrary payloads to the KEXINIT
// decoder, which must also agree with the reference decoder on each.
func TestParseKexInitNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ParseKexInit panicked on %x: %v", b, r)
			}
		}()
		checkParseKexInit(t, b)
		checkParseKexInit(t, append([]byte{MsgKexInit}, b...))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestReadPacketNeverPanics feeds arbitrary streams to the packet reader.
func TestReadPacketNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadPacket panicked on %x: %v", b, r)
			}
		}()
		_, _ = ReadPacket(bytes.NewReader(b))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestReadBannerNeverPanics feeds arbitrary pre-banner noise.
func TestReadBannerNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadBanner panicked on %x: %v", b, r)
			}
		}()
		_, _ = ReadBanner(bufio.NewReader(bytes.NewReader(b)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestKexBlobParsersNeverPanic covers the key/signature blob decoders.
func TestKexBlobParsersNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("blob parser panicked on %x: %v", b, r)
			}
		}()
		_, _, _ = ParsePublicKeyBlob(b)
		_, _ = ParseEd25519PublicKey(b)
		_, _, _ = ParseSignatureBlob(b)
		_, _ = parseECDHInit(b)
		_, _, _, _ = parseECDHReply(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMutatedKexInit mutates every byte of a valid KEXINIT payload; the
// decoder must not panic and must agree with the reference decoder.
func TestMutatedKexInit(t *testing.T) {
	var cookie [16]byte
	base := Profiles[0].Algorithms.KexInit(cookie).Marshal()
	for pos := 0; pos < len(base); pos++ {
		mut := append([]byte(nil), base...)
		mut[pos] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseKexInit panicked with byte %d flipped: %v", pos, r)
				}
			}()
			checkParseKexInit(t, mut)
		}()
	}
}

// hostileServe runs the server against a scripted client and must return
// (not hang, not panic) for every script.
func TestServerSurvivesHostileClients(t *testing.T) {
	_, priv, err := GenerateEd25519(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := Profiles[0]
	cfg := ServerConfig{
		Banner: p.Banner, Algorithms: p.Algorithms, HostKey: priv,
		HandshakeTimeout: 300 * time.Millisecond,
	}
	scripts := map[string]func(c net.Conn){
		"immediate close": func(c net.Conn) {},
		"garbage banner": func(c net.Conn) {
			c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
			io.Copy(io.Discard, c)
		},
		"banner then garbage packet": func(c net.Conn) {
			br := bufio.NewReader(c)
			ReadBanner(br)
			WriteBanner(c, "SSH-2.0-Hostile")
			c.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 1, 2, 3})
			io.Copy(io.Discard, br)
		},
		"valid kexinit then junk ecdh": func(c net.Conn) {
			br := bufio.NewReader(c)
			ReadBanner(br)
			WriteBanner(c, "SSH-2.0-Hostile")
			ReadPacket(br) // server KEXINIT
			var cookie [16]byte
			WritePacket(c, DefaultClientAlgorithms().KexInit(cookie).Marshal())
			WritePacket(c, []byte{MsgKexECDHInit, 0xde, 0xad}) // truncated point
			io.Copy(io.Discard, br)
		},
		"silent after banner": func(c net.Conn) {
			br := bufio.NewReader(c)
			ReadBanner(br)
			WriteBanner(c, "SSH-2.0-Hostile")
			io.Copy(io.Discard, br) // never send KEXINIT
		},
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			client, server := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				NewServer(cfg).Serve(server, netsim.ServeContext{})
			}()
			go func() {
				defer client.Close()
				_ = client.SetDeadline(time.Now().Add(time.Second))
				script(client)
			}()
			select {
			case <-done:
			case <-time.After(3 * time.Second):
				t.Fatal("server hung against hostile client")
			}
		})
	}
}
