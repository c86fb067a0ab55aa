package sshwire

import (
	"crypto/ecdh"
	"crypto/sha256"
	"fmt"
	"io"
)

// exchangeHash computes H for curve25519-sha256 (RFC 8731 reuses the RFC 5656
// §4 ECDH construction):
//
//	H = SHA256(string V_C, string V_S, string I_C, string I_S,
//	           string K_S, string Q_C, string Q_S, mpint K)
//
// where V_* are the identification strings without CRLF, I_* the full
// KEXINIT payloads, K_S the host key blob, Q_* the 32-byte public points and
// K the shared secret interpreted as a positive mpint. The fields stream into
// one hash, so no buffer holds the whole preimage.
func exchangeHash(vc, vs string, ic, is, ks, qc, qs, k []byte) []byte {
	h := sha256.New()
	// buf holds V_C and V_S, then K_S, Q_C, Q_S and K, with their length
	// prefixes; a run too long for it spills to the heap. The KEXINIT
	// payloads go to the hash directly.
	var buf [512]byte
	b := append(AppendUint32(buf[:0], uint32(len(vc))), vc...)
	b = append(AppendUint32(b, uint32(len(vs))), vs...)
	h.Write(AppendUint32(b, uint32(len(ic))))
	h.Write(ic)
	h.Write(AppendUint32(buf[:0], uint32(len(is))))
	h.Write(is)
	b = AppendString(buf[:0], ks)
	b = AppendString(b, qc)
	b = AppendString(b, qs)
	h.Write(AppendMpint(b, k))
	return h.Sum(nil)
}

// generateX25519 creates an ephemeral key pair from the given entropy source.
func generateX25519(rand io.Reader) (*ecdh.PrivateKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("sshwire: X25519 keygen: %w", err)
	}
	return priv, nil
}

// x25519Shared computes the shared secret between priv and the peer's raw
// 32-byte public point.
func x25519Shared(priv *ecdh.PrivateKey, peerPoint []byte) ([]byte, error) {
	peer, err := ecdh.X25519().NewPublicKey(peerPoint)
	if err != nil {
		return nil, fmt.Errorf("sshwire: peer X25519 point: %w", err)
	}
	shared, err := priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("sshwire: X25519 agreement: %w", err)
	}
	return shared, nil
}

// marshalECDHInit builds the SSH_MSG_KEX_ECDH_INIT payload.
func marshalECDHInit(qc []byte) []byte {
	out := make([]byte, 0, 1+4+len(qc))
	out = append(out, MsgKexECDHInit)
	return AppendString(out, qc)
}

// parseECDHInit decodes an SSH_MSG_KEX_ECDH_INIT payload.
func parseECDHInit(payload []byte) (qc []byte, err error) {
	if len(payload) < 1 || payload[0] != MsgKexECDHInit {
		return nil, fmt.Errorf("%w: not an ECDH_INIT", ErrBadPacket)
	}
	qc, rest, err := ReadString(payload[1:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in ECDH_INIT", ErrBadPacket)
	}
	return qc, nil
}

// marshalECDHReply builds the SSH_MSG_KEX_ECDH_REPLY payload.
func marshalECDHReply(ks, qs, sig []byte) []byte {
	out := make([]byte, 0, 1+4+len(ks)+4+len(qs)+4+len(sig))
	out = append(out, MsgKexECDHReply)
	out = AppendString(out, ks)
	out = AppendString(out, qs)
	return AppendString(out, sig)
}

// parseECDHReply decodes an SSH_MSG_KEX_ECDH_REPLY payload.
func parseECDHReply(payload []byte) (ks, qs, sig []byte, err error) {
	if len(payload) < 1 || payload[0] != MsgKexECDHReply {
		return nil, nil, nil, fmt.Errorf("%w: not an ECDH_REPLY", ErrBadPacket)
	}
	b := payload[1:]
	if ks, b, err = ReadString(b); err != nil {
		return nil, nil, nil, fmt.Errorf("sshwire: ECDH_REPLY host key: %w", err)
	}
	if qs, b, err = ReadString(b); err != nil {
		return nil, nil, nil, fmt.Errorf("sshwire: ECDH_REPLY server point: %w", err)
	}
	if sig, b, err = ReadString(b); err != nil {
		return nil, nil, nil, fmt.Errorf("sshwire: ECDH_REPLY signature: %w", err)
	}
	if len(b) != 0 {
		return nil, nil, nil, fmt.Errorf("%w: trailing bytes in ECDH_REPLY", ErrBadPacket)
	}
	return ks, qs, sig, nil
}

// marshalDisconnect builds an SSH_MSG_DISCONNECT payload.
func marshalDisconnect(reason uint32, msg string) []byte {
	out := []byte{MsgDisconnect}
	out = AppendUint32(out, reason)
	out = AppendString(out, []byte(msg))
	return AppendString(out, nil) // language tag
}

// Disconnect reason codes (RFC 4253 §11.1).
const (
	DisconnectKexFailed     = 3
	DisconnectByApplication = 11
)
