package sshwire

import (
	"bufio"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"time"
)

// ScanResult is what one SSH service scan of a single address yields: the
// raw material for the paper's two-part SSH identifier (banner + algorithm
// capabilities, and the server host key).
type ScanResult struct {
	// Banner is the server's identification string without CRLF.
	Banner string
	// KexInit is the server's algorithm announcement.
	KexInit *KexInit
	// HostKeyAlgo is the negotiated host key algorithm, empty if key
	// exchange never completed.
	HostKeyAlgo string
	// HostKeyBlob is the server's public host key in SSH blob format.
	HostKeyBlob []byte
	// HostKeyFingerprint is the OpenSSH-style SHA256 fingerprint of the
	// blob, the canonical key form used by the alias pipeline.
	HostKeyFingerprint string
	// SignatureValid reports whether the server proved possession of the
	// host key by a correct signature over the exchange hash. Without it the
	// host key is only a claim: any responder can present another host's
	// public blob.
	SignatureValid bool
	// KexCompleted reports whether the key exchange ran to ECDH_REPLY.
	KexCompleted bool
}

// HasIdentifierMaterial reports whether the scan captured both identifier
// halves the paper combines: capabilities and a host key the server proved
// it holds.
func (r *ScanResult) HasIdentifierMaterial() bool {
	return r != nil && r.Banner != "" && r.KexInit != nil && len(r.HostKeyBlob) > 0 && r.SignatureValid
}

// ScanConfig parameterises a client scan.
type ScanConfig struct {
	// Algorithms is the client offer; zero value selects
	// DefaultClientAlgorithms.
	Algorithms Algorithms
	// Timeout bounds the whole exchange; zero means 5s.
	Timeout time.Duration
}

// ClientBanner identifies the scanner, following the convention of
// announcing tool and version.
const ClientBanner = "SSH-2.0-AliasLimitScan_0.9"

// defaultClientAlgorithms is the offer of a Scan whose config names none.
// Scan only reads it.
var defaultClientAlgorithms = DefaultClientAlgorithms()

// scannerKey is the client's X25519 key, drawn once per process and shared
// by every Scan. The scanner never derives session keys, and the fresh
// cookie each Scan puts in I_C makes every exchange hash unique, so a
// recorded signature never verifies a second time.
var scannerKey = sync.OnceValues(func() (*ecdh.PrivateKey, error) {
	return generateX25519(rand.Reader)
})

// Scan runs the plaintext phase of SSH against an established connection and
// collects identifier material. It always closes conn. The returned result
// is non-nil whenever the server sent a valid banner, even if later stages
// failed: a banner plus KEXINIT is still half an identifier, and the paper's
// pipeline records partial observations.
func Scan(conn net.Conn, cfg ScanConfig) (*ScanResult, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	emptyAlgos := len(cfg.Algorithms.Kex) == 0 && len(cfg.Algorithms.HostKey) == 0
	if emptyAlgos {
		cfg.Algorithms = defaultClientAlgorithms
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(cfg.Timeout))

	br := bufio.NewReaderSize(conn, readBufferSize)
	serverBanner, err := ReadBanner(br)
	if err != nil {
		return nil, fmt.Errorf("sshwire: reading banner: %w", err)
	}
	res := &ScanResult{Banner: serverBanner}
	if err := WriteBanner(conn, ClientBanner); err != nil {
		return res, err
	}

	serverKexInitPayload, err := readNonTrivialPacket(br)
	if err != nil {
		return res, fmt.Errorf("sshwire: reading server KEXINIT: %w", err)
	}
	sk, err := ParseKexInit(serverKexInitPayload)
	if err != nil {
		return res, err
	}
	res.KexInit = sk

	// The cookie keeps exchange hashes unique under scannerKey, so it always
	// comes from crypto/rand, never from a stream a caller could repeat.
	var cookie [16]byte
	if _, err := rand.Read(cookie[:]); err != nil {
		return res, err
	}
	clientKexInitPayload := cfg.Algorithms.KexInit(cookie).Marshal()
	if err := WritePacket(conn, clientKexInitPayload); err != nil {
		return res, err
	}

	kexAlgo, okKex := negotiate(cfg.Algorithms.Kex, sk.KexAlgorithms)
	hostKeyAlgo, okHK := negotiate(cfg.Algorithms.HostKey, sk.ServerHostKeyAlgorithms)
	if !okKex || !okHK {
		// No common algorithms: the capabilities half of the identifier is
		// all this target yields. Not an error — a finding.
		return res, nil
	}
	_ = kexAlgo

	key, err := scannerKey()
	if err != nil {
		return res, err
	}
	qc := key.PublicKey().Bytes()
	if err := WritePacket(conn, marshalECDHInit(qc)); err != nil {
		return res, err
	}

	replyPayload, err := readNonTrivialPacket(br)
	if err != nil {
		return res, fmt.Errorf("sshwire: reading ECDH reply: %w", err)
	}
	if len(replyPayload) > 0 && replyPayload[0] == MsgDisconnect {
		return res, nil // server bowed out; keep partial result
	}
	ks, qs, sigBlob, err := parseECDHReply(replyPayload)
	if err != nil {
		return res, err
	}
	res.KexCompleted = true
	res.HostKeyBlob = append([]byte(nil), ks...)
	res.HostKeyFingerprint = Fingerprint(ks)
	algo, _, err := ParsePublicKeyBlob(ks)
	if err == nil {
		res.HostKeyAlgo = algo
	}
	if hostKeyAlgo == HostKeyEd25519 && algo == HostKeyEd25519 {
		shared, err := x25519Shared(key, qs)
		if err == nil {
			h := exchangeHash(ClientBanner, serverBanner,
				clientKexInitPayload, serverKexInitPayload, ks, qc, qs, shared)
			res.SignatureValid = ed25519Verify(ks, h, sigBlob)
		}
	}

	// Finish politely: consume the server's NEWKEYS (which may already be
	// in flight — on an unbuffered transport an unread write would wedge
	// both sides), then answer with our own and disconnect.
	_, _ = readNonTrivialPacket(br)
	_ = WritePacket(conn, []byte{MsgNewKeys})
	return res, nil
}

// ed25519Verify recomputes nothing itself: it checks the server's signature
// blob over the already-computed exchange hash, proving the responder holds
// the advertised host key.
func ed25519Verify(ks []byte, h []byte, sigBlob []byte) bool {
	pub, err := ParseEd25519PublicKey(ks)
	if err != nil {
		return false
	}
	algo, sig, err := ParseSignatureBlob(sigBlob)
	if err != nil || algo != HostKeyEd25519 {
		return false
	}
	return ed25519.Verify(pub, h, sig)
}
