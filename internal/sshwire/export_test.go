package sshwire

import (
	"bufio"
	"crypto/ed25519"
	"crypto/rand"
	"net"
)

// ServeSignedBy is a scripted responder for the external tests. It answers
// one scan as Server.Serve does with Profiles[0], but presents the host key
// present and signs the exchange hash with signer. When signer is present's
// private half it is a genuine server; otherwise it is a responder that
// claims a host key it does not hold. It closes conn.
func ServeSignedBy(conn net.Conn, present ed25519.PublicKey, signer ed25519.PrivateKey) {
	defer conn.Close()
	p := Profiles[0]
	br := bufio.NewReader(conn)
	if err := WriteBanner(conn, p.Banner); err != nil {
		return
	}
	clientBanner, err := ReadBanner(br)
	if err != nil {
		return
	}
	var cookie [16]byte
	serverKexInit := p.Algorithms.KexInit(cookie).Marshal()
	if err := WritePacket(conn, serverKexInit); err != nil {
		return
	}
	clientKexInit, err := readNonTrivialPacket(br)
	if err != nil {
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
	eph, err := generateX25519(rand.Reader)
	if err != nil {
		return
	}
	shared, err := x25519Shared(eph, qc)
	if err != nil {
		return
	}
	qs := eph.PublicKey().Bytes()
	ks := MarshalEd25519PublicKey(present)
	h := exchangeHash(clientBanner, p.Banner, clientKexInit, serverKexInit, ks, qc, qs, shared)
	sig := MarshalEd25519Signature(ed25519.Sign(signer, h))
	if err := WritePacket(conn, marshalECDHReply(ks, qs, sig)); err != nil {
		return
	}
	if err := WritePacket(conn, []byte{MsgNewKeys}); err != nil {
		return
	}
	_, _ = readNonTrivialPacket(br)
}
