// Package obslog is the durable observation log: an append-only,
// per-protocol-sharded, length-prefixed binary record of every identifier
// observation a measurement run extracts, with CRC-framed records, epoch
// boundary markers and a checkpoint manifest.
//
// Where obsfile is the human-auditable JSONL interchange format, obslog is
// the crash-safe collection journal: the scan worker pools tee every
// extracted observation into a Writer while the sweeps are still in flight
// (experiments.ScanOptions.Sink), each epoch boundary folds the arrivals
// into a canonical on-disk segment and commits a manifest checkpoint, and
// Replay rebuilds any committed epoch's datasets from disk — byte-identical
// to the in-RAM run.
//
// # On-disk layout
//
// A log directory holds one shard per protocol plus the manifest:
//
//	ssh.obslog  bgp.obslog  snmpv3.obslog   # append-only record logs
//	ssh.spill   bgp.spill   snmpv3.spill    # arrival-order spill (transient)
//	MANIFEST.json                           # checkpoint manifest (atomic)
//
// Every shard file is a sequence of frames:
//
//	u32le payload length | payload | u32le CRC-32C (Castagnoli) of payload
//
// The first frame is a header (kind 0: magic "OLOG", format version,
// protocol byte). Observation frames (kind 1) carry the source (active or
// Censys campaign), the address (family-tagged, 4 or 16 bytes), and the
// identifier digest. An epoch marker frame (kind 2) closes each epoch.
//
// # Determinism and the spill
//
// Scan workers deliver observations in nondeterministic arrival order, so
// the Writer never appends them to the shard directly: they accumulate in a
// bounded memory buffer that overflows to the .spill file (the disk-backed
// cache idiom — collection memory stays bounded no matter the world size).
// CompleteEpoch reads the spill back, sorts the epoch's records canonically
// by (source, address, digest), drops exact duplicates, and appends the
// canonical segment plus the epoch marker to the shard. Two runs of the
// same world therefore produce byte-for-byte identical logs — the property
// the CI log-diff job asserts with cmp.
//
// # Crash safety
//
// The manifest names an epoch only after its segments are on disk, and it
// records each shard's size after every committed epoch. Resume truncates
// the shards back to the last committed offsets and clears the spills, so
// a killed run's partial epoch and torn frames are cut away and the run
// continues from its last committed epoch. Every reader (Replay, OpenEpoch,
// Writer.EpochReaderAt) goes through the EpochReader, which reads only
// committed or folded segments and treats any defect inside one — a wrong
// header, a torn or CRC-corrupt frame, a misnumbered or misplaced epoch
// marker — as an error.
package obslog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// Source labels which measurement campaign produced an observation. The
// analysis layer combines the campaigns asymmetrically (SSH and BGP from
// the union, SNMPv3 from the active scan only), so replay must keep them
// apart.
type Source uint8

const (
	// SourceActive is the single-vantage active measurement.
	SourceActive Source = 0
	// SourceCensys is the distributed snapshot campaign.
	SourceCensys Source = 1
)

// String names the source for diagnostics.
func (s Source) String() string {
	if s == SourceCensys {
		return "censys"
	}
	return "active"
}

// Frame kinds.
const (
	kindHeader byte = 0
	kindObs    byte = 1
	kindMark   byte = 2
)

// formatVersion is the shard format version the header frame records.
const formatVersion = 1

// magic opens every shard header frame.
var magic = [4]byte{'O', 'L', 'O', 'G'}

// castagnoli is the CRC-32C table shared by all framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the length prefix plus the CRC trailer.
const frameOverhead = 8

// headerSize is the encoded size of a shard's header frame: kind, magic,
// version and protocol bytes plus the frame overhead.
const headerSize = frameOverhead + 7

// markSize is the encoded size of an epoch marker frame: kind and u32le
// epoch plus the frame overhead.
const markSize = frameOverhead + 5

// numShards is one shard per protocol (SSH, BGP, SNMPv3).
const numShards = 3

// rec is one logged observation, held decoded in memory.
type rec struct {
	src    Source
	addr   netip.Addr
	digest string
}

// observation converts a record back to the analysis representation.
func (r rec) observation(p ident.Protocol) alias.Observation {
	return alias.Observation{Addr: r.addr, ID: ident.Identifier{Proto: p, Digest: r.digest}}
}

// less is the canonical record order within an epoch segment: source, then
// address, then digest. Sorting arrival-order spills into this order is
// what makes shard bytes run-order independent.
func (r rec) less(o rec) bool {
	if r.src != o.src {
		return r.src < o.src
	}
	if c := r.addr.Compare(o.addr); c != 0 {
		return c < 0
	}
	return r.digest < o.digest
}

// shardName returns a protocol's shard file basename ("ssh.obslog").
func shardName(p ident.Protocol) string {
	return protoKey(p) + ".obslog"
}

// spillName returns a protocol's spill file basename.
func spillName(p ident.Protocol) string {
	return protoKey(p) + ".spill"
}

// protoKey is the lower-case protocol key used for shard names and manifest
// offset maps ("ssh", "bgp", "snmpv3").
func protoKey(p ident.Protocol) string {
	switch p {
	case ident.SSH:
		return "ssh"
	case ident.BGP:
		return "bgp"
	default:
		return "snmpv3"
	}
}

// appendFrame appends one CRC frame carrying payload to dst.
func appendFrame(dst, payload []byte) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	dst = append(dst, n[:]...)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(n[:], crc32.Checksum(payload, castagnoli))
	return append(dst, n[:]...)
}

// headerPayload builds a shard's header frame payload.
func headerPayload(p ident.Protocol) []byte {
	return []byte{kindHeader, magic[0], magic[1], magic[2], magic[3], formatVersion, byte(p)}
}

// appendObsPayload encodes one observation record as a frame payload.
func appendObsPayload(dst []byte, r rec) []byte {
	dst = append(dst, kindObs, byte(r.src))
	if r.addr.Is4() {
		a := r.addr.As4()
		dst = append(dst, 4)
		dst = append(dst, a[:]...)
	} else {
		a := r.addr.As16()
		dst = append(dst, 16)
		dst = append(dst, a[:]...)
	}
	return append(dst, r.digest...)
}

// decodeObsPayload parses an observation frame payload.
func decodeObsPayload(payload []byte) (rec, error) {
	if len(payload) < 3 {
		return rec{}, fmt.Errorf("obslog: observation frame too short (%d bytes)", len(payload))
	}
	r := rec{src: Source(payload[1])}
	if r.src != SourceActive && r.src != SourceCensys {
		return rec{}, fmt.Errorf("obslog: unknown source %d", payload[1])
	}
	alen := int(payload[2])
	rest := payload[3:]
	switch {
	case alen == 4 && len(rest) >= 4:
		r.addr = netip.AddrFrom4([4]byte(rest[:4]))
	case alen == 16 && len(rest) >= 16:
		r.addr = netip.AddrFrom16([16]byte(rest[:16]))
	default:
		return rec{}, fmt.Errorf("obslog: bad address length %d", alen)
	}
	r.digest = string(rest[alen:])
	if r.digest == "" {
		return rec{}, fmt.Errorf("obslog: empty digest for %s", r.addr)
	}
	return r, nil
}

// markPayload encodes an epoch boundary marker.
func markPayload(epoch int) []byte {
	var p [5]byte
	p[0] = kindMark
	binary.LittleEndian.PutUint32(p[1:], uint32(epoch))
	return p[:]
}

// nextFrame parses the frame at the start of data, returning its payload
// and total encoded size. ok is false when the bytes do not form a complete,
// CRC-valid frame.
func nextFrame(data []byte) (payload []byte, size int, ok bool) {
	if len(data) < frameOverhead {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 1 || len(data) < frameOverhead+n {
		return nil, 0, false
	}
	payload = data[4 : 4+n]
	want := binary.LittleEndian.Uint32(data[4+n:])
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, 0, false
	}
	return payload, frameOverhead + n, true
}

// checkHeader reads the header frame at the start of an open shard file.
// The frame is fully determined by the protocol, so one byte comparison
// checks its length, magic, version, protocol and CRC.
func checkHeader(f *os.File, p ident.Protocol) error {
	want := appendFrame(nil, headerPayload(p))
	got := make([]byte, len(want))
	if _, err := f.ReadAt(got, 0); err != nil {
		return fmt.Errorf("obslog: %s shard: reading header frame: %w", protoKey(p), err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("obslog: %s shard: bad header (wrong magic, version, or protocol)", protoKey(p))
	}
	return nil
}
