// Package sshwire implements the plaintext phase of the SSH transport layer
// protocol (RFC 4253): version-string exchange, the binary packet protocol,
// algorithm negotiation (SSH_MSG_KEXINIT), and the curve25519-sha256 key
// exchange with ssh-ed25519 host keys — server and client sides.
//
// That is exactly the slice of SSH the paper's methodology touches: the
// scanner completes the TCP handshake, reads the server's banner, exchanges
// KEXINIT messages (whose algorithm name-lists RFC 4253 requires to be in
// preference order, making them an implementation fingerprint), and runs one
// key exchange to obtain the server's host public key. Nothing after
// SSH_MSG_NEWKEYS is ever needed, so no encryption, MAC, or authentication
// layer is implemented.
//
// Everything is built on the standard library: crypto/ecdh for X25519,
// crypto/ed25519 for host keys, crypto/sha256 for the exchange hash.
package sshwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Message numbers from RFC 4253 §12.
const (
	MsgDisconnect    = 1
	MsgIgnore        = 2
	MsgUnimplemented = 3
	MsgKexInit       = 20
	MsgNewKeys       = 21
	MsgKexECDHInit   = 30
	MsgKexECDHReply  = 31
)

// Protocol limits.
const (
	// MaxPacketLen bounds accepted packets; RFC 4253 requires support for
	// 32768-byte packets and allows larger. A scanner has no business
	// accepting more.
	MaxPacketLen = 65536
	// MaxBannerLen bounds the identification string (255 per RFC, but real
	// servers occasionally exceed it; we allow some slack for pre-banner
	// lines).
	MaxBannerLen = 1024
	// blockSize is the cipher block size before NEWKEYS (RFC 4253 §6: 8).
	blockSize = 8
	// minPadding is the minimum padding length (RFC 4253 §6).
	minPadding = 4
	// readBufferSize sizes the buffered reader of each connection, scanner
	// or server. ReadPacket and ReadBanner copy out every byte they return,
	// so a small buffer costs only more reads of a long packet.
	readBufferSize = 512
)

// Errors returned by the codec.
var (
	ErrShortBuffer = errors.New("sshwire: buffer too short")
	ErrTooLong     = errors.New("sshwire: field exceeds limit")
	ErrBadPacket   = errors.New("sshwire: malformed packet")
	ErrBadBanner   = errors.New("sshwire: malformed identification string")
)

// --- SSH primitive types (RFC 4251 §5) ---

// AppendUint32 appends a uint32 in network order.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

// AppendString appends an SSH string (uint32 length prefix + bytes).
func AppendString(dst []byte, s []byte) []byte {
	dst = AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendNameList appends an SSH name-list: a string of comma-separated names.
func AppendNameList(dst []byte, names []string) []byte {
	dst = AppendUint32(dst, uint32(nameListLen(names)))
	for i, name := range names {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, name...)
	}
	return dst
}

// nameListLen is the length of names joined by commas.
func nameListLen(names []string) int {
	n := 0
	for _, name := range names {
		n += len(name)
	}
	if len(names) > 1 {
		n += len(names) - 1
	}
	return n
}

// AppendMpint appends an SSH mpint: two's-complement big-endian with a
// leading zero byte when the high bit of the first byte is set, and minimal
// length. The input is an unsigned big-endian integer.
func AppendMpint(dst []byte, b []byte) []byte {
	// Strip leading zeros.
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	if len(b) == 0 {
		return AppendUint32(dst, 0)
	}
	if b[0]&0x80 != 0 {
		dst = AppendUint32(dst, uint32(len(b)+1))
		dst = append(dst, 0)
		return append(dst, b...)
	}
	return AppendString(dst, b)
}

// ReadUint32 decodes a uint32 from the front of b.
func ReadUint32(b []byte) (v uint32, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, ErrShortBuffer
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

// ReadString decodes an SSH string from the front of b. The returned slice
// aliases b.
func ReadString(b []byte) (s []byte, rest []byte, err error) {
	n, rest, err := ReadUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint32(len(rest)) < n {
		return nil, nil, ErrShortBuffer
	}
	return rest[:n], rest[n:], nil
}

// --- Binary packet protocol (RFC 4253 §6), plaintext phase only ---

// WritePacket frames payload into an unencrypted SSH packet and writes it.
// Padding is zero-filled: RFC 4253 says padding SHOULD be random, but in the
// plaintext phase its only functional role is alignment, and deterministic
// output keeps scans and tests reproducible.
func WritePacket(w io.Writer, payload []byte) error {
	if len(payload) > MaxPacketLen {
		return ErrTooLong
	}
	// packet_length(4) + padding_length(1) + payload + padding ≡ 0 (mod 8)
	pad := blockSize - (5+len(payload))%blockSize
	if pad < minPadding {
		pad += blockSize
	}
	buf := make([]byte, 5+len(payload)+pad) // the padding stays zero
	binary.BigEndian.PutUint32(buf, uint32(1+len(payload)+pad))
	buf[4] = byte(pad)
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadPacket reads one unencrypted SSH packet and returns its payload.
func ReadPacket(r io.Reader) ([]byte, error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	packetLen := binary.BigEndian.Uint32(head[:4])
	padLen := int(head[4])
	if packetLen < 1 || packetLen > MaxPacketLen {
		return nil, fmt.Errorf("%w: packet length %d", ErrBadPacket, packetLen)
	}
	if padLen < minPadding || uint32(padLen) >= packetLen {
		return nil, fmt.Errorf("%w: padding length %d of %d", ErrBadPacket, padLen, packetLen)
	}
	body := make([]byte, int(packetLen)-1)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body[:len(body)-padLen], nil
}

// --- Identification string exchange (RFC 4253 §4.2) ---

// WriteBanner writes the identification string followed by CRLF. banner must
// start with "SSH-".
func WriteBanner(w io.Writer, banner string) error {
	if !strings.HasPrefix(banner, "SSH-") {
		return fmt.Errorf("%w: %q", ErrBadBanner, banner)
	}
	line := make([]byte, 0, len(banner)+2)
	_, err := w.Write(append(append(line, banner...), '\r', '\n'))
	return err
}

// ReadBanner reads the peer's identification string, skipping any pre-banner
// lines the server may send (RFC 4253 §4.2 allows them before the version
// string). The returned banner has no line terminator.
func ReadBanner(r *bufio.Reader) (string, error) {
	for lines := 0; lines < 32; lines++ {
		line, err := readLine(r)
		if err != nil {
			return "", err
		}
		if strings.HasPrefix(line, "SSH-") {
			if len(line) > MaxBannerLen {
				return "", fmt.Errorf("%w: banner length %d", ErrBadBanner, len(line))
			}
			return line, nil
		}
	}
	return "", fmt.Errorf("%w: no SSH- line within 32 lines", ErrBadBanner)
}

// readLine reads a CRLF- or LF-terminated line without the terminator. The
// line collects in a stack buffer, so only the returned string is allocated.
func readLine(r *bufio.Reader) (string, error) {
	var buf [MaxBannerLen + 1]byte
	line := buf[:0]
	for len(line) <= MaxBannerLen {
		b, err := r.ReadByte()
		if err != nil {
			return "", err
		}
		if b == '\n' {
			return string(bytes.TrimSuffix(line, []byte("\r"))), nil
		}
		line = append(line, b)
	}
	return "", fmt.Errorf("%w: line too long", ErrBadBanner)
}
