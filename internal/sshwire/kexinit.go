package sshwire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// KexInit is the SSH_MSG_KEXINIT payload (RFC 4253 §7.1). The ten name-lists
// MUST each be ordered by preference, which is why their exact content and
// order fingerprint the implementation — the first half of the paper's SSH
// identifier.
type KexInit struct {
	// Cookie is 16 random bytes; it does not participate in identifiers.
	Cookie [16]byte
	// KexAlgorithms through Languages are the ten RFC 4253 name-lists.
	KexAlgorithms             []string
	ServerHostKeyAlgorithms   []string
	EncryptionClientToServer  []string
	EncryptionServerToClient  []string
	MACClientToServer         []string
	MACServerToClient         []string
	CompressionClientToServer []string
	CompressionServerToClient []string
	LanguagesClientToServer   []string
	LanguagesServerToClient   []string
	// FirstKexPacketFollows signals an optimistic guessed kex packet.
	FirstKexPacketFollows bool
	// Reserved is transmitted as zero by every known implementation.
	Reserved uint32
}

// Marshal encodes the message payload, including the leading message number.
func (k *KexInit) Marshal() []byte {
	lists := k.nameLists()
	n := 1 + len(k.Cookie) + 1 + 4 // message number, cookie, flag, reserved
	for _, list := range lists {
		n += 4 + nameListLen(*list)
	}
	out := make([]byte, 0, n)
	out = append(out, MsgKexInit)
	out = append(out, k.Cookie[:]...)
	for _, list := range lists {
		out = AppendNameList(out, *list)
	}
	if k.FirstKexPacketFollows {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return AppendUint32(out, k.Reserved)
}

// nameLists returns the ten lists in wire order.
func (k *KexInit) nameLists() [10]*[]string {
	return [10]*[]string{
		&k.KexAlgorithms,
		&k.ServerHostKeyAlgorithms,
		&k.EncryptionClientToServer,
		&k.EncryptionServerToClient,
		&k.MACClientToServer,
		&k.MACServerToClient,
		&k.CompressionClientToServer,
		&k.CompressionServerToClient,
		&k.LanguagesClientToServer,
		&k.LanguagesServerToClient,
	}
}

// ParseKexInit decodes an SSH_MSG_KEXINIT payload (with message number). An
// empty name-list decodes to nil; otherwise every comma separates two names,
// so "a,,b" holds three and "a," two. All names share one copy of the
// lists' bytes and one backing array.
func ParseKexInit(payload []byte) (*KexInit, error) {
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

	// First pass: bound each list within b and count the names.
	var spans [10][2]int
	rest, count := b, 0
	for i := range spans {
		s, r, err := ReadString(rest)
		if err != nil {
			return nil, fmt.Errorf("sshwire: KEXINIT name-list %d: %w", i, err)
		}
		end := len(b) - len(r)
		spans[i] = [2]int{end - len(s), end}
		if len(s) > 0 {
			count += bytes.Count(s, []byte{','}) + 1
		}
		rest = r
	}
	if len(rest) < 5 {
		return nil, ErrShortBuffer
	}
	k.FirstKexPacketFollows = rest[0] != 0
	k.Reserved = binary.BigEndian.Uint32(rest[1:])

	// Second pass: slice every name from one string copy of the lists.
	text := string(b[:len(b)-len(rest)])
	names := make([]string, 0, count)
	for i, list := range k.nameLists() {
		s := text[spans[i][0]:spans[i][1]]
		if s == "" {
			continue
		}
		first := len(names)
		for {
			j := strings.IndexByte(s, ',')
			if j < 0 {
				break
			}
			names = append(names, s[:j])
			s = s[j+1:]
		}
		names = append(names, s)
		*list = names[first:len(names):len(names)]
	}
	return &k, nil
}

// negotiate picks the first client algorithm also present on the server list
// (RFC 4253 §7.1 negotiation rule).
func negotiate(client, server []string) (string, bool) {
	for _, c := range client {
		for _, s := range server {
			if c == s {
				return c, true
			}
		}
	}
	return "", false
}

// Algorithm names used by this implementation.
const (
	KexCurve25519       = "curve25519-sha256"
	KexCurve25519LibSSH = "curve25519-sha256@libssh.org"
	HostKeyEd25519      = "ssh-ed25519"
)
