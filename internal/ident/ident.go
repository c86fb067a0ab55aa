// Package ident implements the paper's central idea: protocol-specific
// device identifiers extracted from application-layer handshake material.
//
// Two addresses that present the same identifier are inferred to be aliases
// of one device; an IPv4 and an IPv6 address with the same identifier form a
// dual-stack pair. The package defines one extractor per protocol:
//
//   - SSH: service banner + the ten preference-ordered KEXINIT algorithm
//     name-lists + the server host key (§2.2 of the paper). The key alone is
//     almost unique, but 0.4% of multi-address hosts announce different
//     capabilities per interface, so key and capabilities are combined.
//   - BGP: every host-wide field of the unsolicited OPEN message — Length,
//     Version, My-AS (and the 4-octet-AS capability), Hold Time, BGP
//     Identifier, and the optional-parameter capabilities (§2.3).
//   - SNMPv3: the USM authoritative engine ID (prior work, the baseline).
//
// Identifiers are canonicalised into a stable preimage string and compacted
// to a SHA-256 digest. Equality of digests is equality of identifiers.
package ident

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"aliaslimit/internal/bgp"
	"aliaslimit/internal/sshwire"
)

// Protocol enumerates identifier-bearing protocols.
type Protocol uint8

const (
	// SSH is the Secure Shell identifier (banner+capabilities+host key).
	SSH Protocol = iota
	// BGP is the OPEN-message identifier.
	BGP
	// SNMP is the SNMPv3 engine-ID identifier (baseline technique).
	SNMP
	numProtocols
)

// Protocols lists all protocols in display order.
var Protocols = []Protocol{SSH, BGP, SNMP}

// String returns the protocol name used in tables.
func (p Protocol) String() string {
	switch p {
	case SSH:
		return "SSH"
	case BGP:
		return "BGP"
	case SNMP:
		return "SNMPv3"
	default:
		return "unknown"
	}
}

// Identifier is one extracted device identifier.
type Identifier struct {
	// Proto is the protocol the identifier came from.
	Proto Protocol
	// Digest is the SHA-256 of the canonical preimage, hex-encoded.
	// Identifiers are equal iff (Proto, Digest) are equal.
	Digest string
}

// Key returns a single map key combining protocol and digest. Identifiers
// from different protocols never compare equal, even on digest collision of
// crafted preimages.
func (id Identifier) Key() string { return id.Proto.String() + ":" + id.Digest }

// digest canonicalises a preimage.
func digest(proto Protocol, preimage []byte) Identifier {
	sum := sha256.Sum256(preimage)
	return Identifier{Proto: proto, Digest: hex.EncodeToString(sum[:])}
}

// FromSSH extracts the paper's SSH identifier from a scan result. ok is
// false when the scan lacks either half of the material (no banner/KEXINIT,
// or no host key whose signature verified).
func FromSSH(res *sshwire.ScanResult) (Identifier, bool) {
	if !res.HasIdentifierMaterial() {
		return Identifier{}, false
	}
	return digest(SSH, appendSSHPreimage(nil, res)), true
}

// appendSSHPreimage appends the canonical identifier preimage to dst:
// banner, the ten name-lists verbatim (order is meaning: RFC 4253 mandates
// preference order), and the host key fingerprint. It grows dst once to the
// exact length first.
func appendSSHPreimage(dst []byte, res *sshwire.ScanResult) []byte {
	k := res.KexInit
	lists := [...]struct {
		label string
		list  []string
	}{
		{"kex", k.KexAlgorithms},
		{"hka", k.ServerHostKeyAlgorithms},
		{"enc_cs", k.EncryptionClientToServer},
		{"enc_sc", k.EncryptionServerToClient},
		{"mac_cs", k.MACClientToServer},
		{"mac_sc", k.MACServerToClient},
		{"comp_cs", k.CompressionClientToServer},
		{"comp_sc", k.CompressionServerToClient},
		{"lang_cs", k.LanguagesClientToServer},
		{"lang_sc", k.LanguagesServerToClient},
	}
	n := len("banner=") + len(res.Banner) + len("\x1fkey=") + len(res.HostKeyFingerprint)
	for _, l := range lists {
		n += len("\x1f=") + len(l.label) + max(len(l.list)-1, 0) // separators and commas
		for _, name := range l.list {
			n += len(name)
		}
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, "banner="...)
	dst = append(dst, res.Banner...)
	for _, l := range lists {
		dst = append(dst, '\x1f')
		dst = append(dst, l.label...)
		dst = append(dst, '=')
		for i, name := range l.list {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, name...)
		}
	}
	dst = append(dst, "\x1fkey="...)
	return append(dst, res.HostKeyFingerprint...)
}

// FromBGP extracts the paper's BGP identifier from a passive scan result.
// ok is false when no OPEN message was captured.
func FromBGP(res *bgp.ScanResult) (Identifier, bool) {
	if !res.Identifiable() {
		return Identifier{}, false
	}
	return digest(BGP, []byte(BGPPreimage(res))), true
}

// BGPPreimage renders the canonical BGP identifier preimage from the OPEN
// fields the paper highlights: Length, Version, My-AS (plus effective
// 4-octet AS), Hold Time, BGP Identifier, and the capability bytes in wire
// order.
func BGPPreimage(res *bgp.ScanResult) string {
	o := res.Open
	var sb strings.Builder
	fmt.Fprintf(&sb, "len=%d\x1fver=%d\x1fmyas=%d\x1fas=%d\x1fhold=%d\x1fid=%d",
		res.OpenLen, o.Version, o.MyAS, o.EffectiveAS(), o.HoldTime, o.BGPIdentifier)
	for _, p := range o.OptParams {
		fmt.Fprintf(&sb, "\x1fparam=%d", p.Type)
		for _, c := range p.Capabilities {
			fmt.Fprintf(&sb, ";cap=%d:%x", c.Code, c.Value)
		}
		if p.Raw != nil {
			fmt.Fprintf(&sb, ";raw=%x", p.Raw)
		}
	}
	return sb.String()
}

// FromSNMPEngineID extracts the baseline SNMPv3 identifier.
func FromSNMPEngineID(engineID []byte) (Identifier, bool) {
	if len(engineID) == 0 {
		return Identifier{}, false
	}
	return digest(SNMP, []byte("engine="+hex.EncodeToString(engineID))), true
}
