package sshwire

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"io"
)

// MarshalEd25519PublicKey encodes a host public key in the ssh-ed25519 blob
// format (RFC 8709 §4): string "ssh-ed25519", string key.
func MarshalEd25519PublicKey(pub ed25519.PublicKey) []byte {
	out := make([]byte, 0, 4+len(HostKeyEd25519)+4+len(pub))
	out = AppendString(out, []byte(HostKeyEd25519))
	return AppendString(out, pub)
}

// ParsePublicKeyBlob decodes any host key blob far enough to extract its
// algorithm name and raw key material. Unknown algorithms still decode: the
// scanner records whatever key the server presents.
func ParsePublicKeyBlob(blob []byte) (algo string, key []byte, err error) {
	name, rest, err := ReadString(blob)
	if err != nil {
		return "", nil, fmt.Errorf("sshwire: host key blob: %w", err)
	}
	return string(name), rest, nil
}

// ParseEd25519PublicKey decodes an ssh-ed25519 host key blob into a usable
// verification key.
func ParseEd25519PublicKey(blob []byte) (ed25519.PublicKey, error) {
	algo, rest, err := ParsePublicKeyBlob(blob)
	if err != nil {
		return nil, err
	}
	if algo != HostKeyEd25519 {
		return nil, fmt.Errorf("sshwire: host key algorithm %q, want %s", algo, HostKeyEd25519)
	}
	key, rest2, err := ReadString(rest)
	if err != nil {
		return nil, fmt.Errorf("sshwire: ed25519 key field: %w", err)
	}
	if len(rest2) != 0 {
		return nil, fmt.Errorf("sshwire: %d trailing bytes in host key blob", len(rest2))
	}
	if len(key) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("sshwire: ed25519 key length %d", len(key))
	}
	return ed25519.PublicKey(key), nil
}

// MarshalEd25519Signature encodes a signature in SSH signature-blob format:
// string "ssh-ed25519", string signature.
func MarshalEd25519Signature(sig []byte) []byte {
	out := make([]byte, 0, 4+len(HostKeyEd25519)+4+len(sig))
	out = AppendString(out, []byte(HostKeyEd25519))
	return AppendString(out, sig)
}

// ParseSignatureBlob decodes an SSH signature blob into algorithm name and
// raw signature bytes.
func ParseSignatureBlob(blob []byte) (algo string, sig []byte, err error) {
	name, rest, err := ReadString(blob)
	if err != nil {
		return "", nil, fmt.Errorf("sshwire: signature blob: %w", err)
	}
	sig, rest, err = ReadString(rest)
	if err != nil {
		return "", nil, fmt.Errorf("sshwire: signature field: %w", err)
	}
	if len(rest) != 0 {
		return "", nil, fmt.Errorf("sshwire: %d trailing bytes in signature blob", len(rest))
	}
	return string(name), sig, nil
}

// Fingerprint renders the OpenSSH-style SHA256 fingerprint of a host key
// blob: "SHA256:" followed by unpadded base64. This is the canonical compact
// form the alias pipeline uses for the key half of the SSH identifier.
func Fingerprint(blob []byte) string {
	sum := sha256.Sum256(blob)
	var buf [64]byte // "SHA256:" and 43 base64 characters
	return string(base64.RawStdEncoding.AppendEncode(append(buf[:0], "SHA256:"...), sum[:]))
}

// GenerateEd25519 deterministically derives a host key pair from the given
// random stream. Simulated devices derive their keys from their device ID so
// worlds are reproducible; real deployments would use crypto/rand.
func GenerateEd25519(rand io.Reader) (ed25519.PublicKey, ed25519.PrivateKey, error) {
	return ed25519.GenerateKey(rand)
}
