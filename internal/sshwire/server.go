package sshwire

import (
	"bufio"
	"crypto/ed25519"
	"crypto/rand"
	"io"
	"net"
	"net/netip"
	"time"

	"aliaslimit/internal/netsim"
)

// ServerConfig describes one simulated SSH server endpoint.
type ServerConfig struct {
	// Banner is the identification string (must start with "SSH-").
	Banner string
	// Algorithms is the server's KEXINIT offer.
	Algorithms Algorithms
	// HostKey is the ssh-ed25519 host private key. SSH hosts generate their
	// key pair at service setup and share it across all interfaces — the
	// property the paper's identifier exploits.
	HostKey ed25519.PrivateKey
	// AlgorithmsFor, when set, overrides the offer per local address. This
	// models the 0.4% of non-singleton hosts the paper found communicating
	// different algorithmic capabilities on different interfaces.
	AlgorithmsFor func(addr netip.Addr) Algorithms
	// BannerFor, when set, overrides the banner per local address.
	BannerFor func(addr netip.Addr) string
	// Rand supplies cookie and ephemeral-key entropy. Nil means
	// crypto/rand; simulated worlds pass deterministic streams.
	Rand io.Reader
	// HandshakeTimeout bounds the whole exchange; zero means 5s.
	HandshakeTimeout time.Duration
}

// Server is a netsim service handler speaking the plaintext phase of SSH.
type Server struct {
	cfg ServerConfig
	// ks is the host key blob K_S every connection presents.
	ks []byte
}

// NewServer returns a handler for cfg.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	ks := MarshalEd25519PublicKey(cfg.HostKey.Public().(ed25519.PublicKey))
	return &Server{cfg: cfg, ks: ks}
}

// Config returns the server configuration (ground-truth bookkeeping).
func (s *Server) Config() ServerConfig { return s.cfg }

// Serve implements netsim.Handler: it runs the banner exchange, KEXINIT
// exchange, and one curve25519/ed25519 key exchange, then disconnects. A
// scanner walks away with everything the paper's SSH identifier needs.
func (s *Server) Serve(conn net.Conn, sc netsim.ServeContext) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(s.cfg.HandshakeTimeout))

	banner := s.cfg.Banner
	if s.cfg.BannerFor != nil {
		banner = s.cfg.BannerFor(sc.LocalAddr)
	}
	algos := s.cfg.Algorithms
	if s.cfg.AlgorithmsFor != nil {
		algos = s.cfg.AlgorithmsFor(sc.LocalAddr)
	}

	br := bufio.NewReaderSize(conn, readBufferSize)
	if err := WriteBanner(conn, banner); err != nil {
		return
	}
	clientBanner, err := ReadBanner(br)
	if err != nil {
		return
	}

	var cookie [16]byte
	if _, err := io.ReadFull(s.cfg.Rand, cookie[:]); err != nil {
		return
	}
	serverKexInit := algos.KexInit(cookie).Marshal()
	if err := WritePacket(conn, serverKexInit); err != nil {
		return
	}
	clientKexInit, err := readNonTrivialPacket(br)
	if err != nil {
		return
	}
	ck, err := ParseKexInit(clientKexInit)
	if err != nil {
		return
	}

	kexAlgo, okKex := negotiate(ck.KexAlgorithms, algos.Kex)
	hostKeyAlgo, okHK := negotiate(ck.ServerHostKeyAlgorithms, algos.HostKey)
	if !okKex || !okHK ||
		(kexAlgo != KexCurve25519 && kexAlgo != KexCurve25519LibSSH) ||
		hostKeyAlgo != HostKeyEd25519 {
		_ = WritePacket(conn, marshalDisconnect(DisconnectKexFailed, "no common algorithms"))
		return
	}

	initPayload, err := readNonTrivialPacket(br)
	if err != nil {
		return
	}
	qc, err := parseECDHInit(initPayload)
	if err != nil {
		return
	}

	eph, err := generateX25519(s.cfg.Rand)
	if err != nil {
		return
	}
	shared, err := x25519Shared(eph, qc)
	if err != nil {
		_ = WritePacket(conn, marshalDisconnect(DisconnectKexFailed, "bad client point"))
		return
	}
	qs := eph.PublicKey().Bytes()

	h := exchangeHash(clientBanner, banner, clientKexInit, serverKexInit, s.ks, qc, qs, shared)
	sigBlob := MarshalEd25519Signature(ed25519.Sign(s.cfg.HostKey, h))

	if err := WritePacket(conn, marshalECDHReply(s.ks, qs, sigBlob)); err != nil {
		return
	}
	if err := WritePacket(conn, []byte{MsgNewKeys}); err != nil {
		return
	}
	// Drain the client's NEWKEYS (or disconnect) so a polite scanner's
	// final write does not block on an unread pipe, then hang up.
	_, _ = readNonTrivialPacket(br)
}

// readNonTrivialPacket reads packets, skipping SSH_MSG_IGNORE, until it gets
// one that carries protocol meaning.
func readNonTrivialPacket(r io.Reader) ([]byte, error) {
	for {
		p, err := ReadPacket(r)
		if err != nil {
			return nil, err
		}
		if len(p) == 0 || p[0] == MsgIgnore {
			continue
		}
		return p, nil
	}
}
