package aliasd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/xrand"
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// shifts allocation counts, so the ceiling below holds only without it.
var raceEnabled bool

// referenceSetsReply is the /v1/sets reply as handleSets wrote it before
// appendSetsReply: every address through String into a [][]string, and the
// object through writeJSON.
func referenceSetsReply(session, view string, sets []alias.Set) *httptest.ResponseRecorder {
	out := make([][]string, len(sets))
	for i, set := range sets {
		addrs := make([]string, len(set.Addrs))
		for j, a := range set.Addrs {
			addrs[j] = a.String()
		}
		out[i] = addrs
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{
		"session": session,
		"view":    view,
		"count":   len(out),
		"sets":    out,
	})
	return rec
}

// hostileZones are IPv6 zones holding what encoding/json escapes, each
// character alone so that every escape is checked on its own: the HTML
// characters, a quote and a backslash, control bytes, invalid UTF-8 and the
// line and paragraph separators; then what it copies as it is, for
// contrast. Ingest takes zones from outside the program, so any of these
// can reach a partition.
var hostileZones = []string{
	"<", ">", "&", `"`, `\`, "\x00", "\b", "\f", "\n", "\r", "\t", "\x1f", "\xff",
	"bad\xc3utf8", "\u2028", "\u2029", "<script>", "eth0", "1%2", "\x7f", "\u00e9", "\ufffd",
}

// randomAddr draws an IPv4, IPv6, IPv4-mapped IPv6 or zoned IPv6 address.
func randomAddr(rng *xrand.SplitMix64) netip.Addr {
	var b [16]byte
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	v4 := netip.AddrFrom4([4]byte(b[:4]))
	switch rng.Intn(5) {
	case 0:
		return v4
	case 1:
		return netip.AddrFrom16(b)
	case 2:
		return netip.AddrFrom16(v4.As16())
	case 3:
		return netip.AddrFrom16(v4.As16()).WithZone(hostileZones[rng.Intn(len(hostileZones))])
	default:
		return netip.AddrFrom16(b).WithZone(hostileZones[rng.Intn(len(hostileZones))])
	}
}

// randomPartition draws n sets of one to eight addresses each.
func randomPartition(rng *xrand.SplitMix64, n int) []alias.Set {
	sets := make([]alias.Set, n)
	for i := range sets {
		addrs := make([]netip.Addr, 1+rng.Intn(8))
		for j := range addrs {
			addrs[j] = randomAddr(rng)
		}
		sets[i] = alias.NewSet(addrs...)
	}
	return sets
}

// TestSetsReplyMatchesReference holds appendSetsReply to the reference
// encoding, byte for byte, over random partitions of every address kind and
// zone above, an empty partition and a set with no address, appending after
// existing bytes.
func TestSetsReplyMatchesReference(t *testing.T) {
	rng := xrand.NewSplitMix64(1)
	cases := [][]alias.Set{nil, {}, {{}}, {alias.NewSet(netip.MustParseAddr("10.0.0.1"))}}
	for i := 0; i < 300; i++ {
		cases = append(cases, randomPartition(rng, rng.Intn(20)))
	}
	for _, z := range hostileZones {
		cases = append(cases, []alias.Set{alias.NewSet(
			netip.MustParseAddr("192.0.2.1"),
			netip.MustParseAddr("fe80::1").WithZone(z),
			netip.MustParseAddr("::ffff:192.0.2.1").WithZone(z),
		)})
	}
	prefix := []byte("prefix")
	for i, sets := range cases {
		want := referenceSetsReply("s12", "union-v6", sets).Body.Bytes()
		got := appendSetsReply(prefix[:len(prefix):len(prefix)], "s12", "union-v6", sets)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("case %d: got\n%s\nwant\n%s", i, got, want)
		}
	}
	for _, s := range append([]string{"s1", "dualstack", ""}, hostileZones...) {
		want := referenceSetsReply(s, s, nil).Body.Bytes()
		if got := appendSetsReply(nil, s, s, nil); !bytes.Equal(got, want) {
			t.Fatalf("session and view %q: got\n%s\nwant\n%s", s, got, want)
		}
	}
}

// fixedPartition is the partition TestSetsReplyAllocs and BenchmarkSetsReply
// encode: 150 sets of six addresses, IPv4 and IPv6 sets alternating.
func fixedPartition() []alias.Set {
	sets := make([]alias.Set, 150)
	for i := range sets {
		addrs := make([]netip.Addr, 6)
		for j := range addrs {
			v4 := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), byte(j + 1)})
			if i%2 == 1 {
				v6 := v4.As16()
				v6[0], v6[1], v6[2], v6[3] = 0x20, 0x01, 0x0d, 0xb8
				addrs[j] = netip.AddrFrom16(v6)
				continue
			}
			addrs[j] = v4
		}
		sets[i] = alias.NewSet(addrs...)
	}
	return sets
}

// setsReplyAllocCeiling is the count TestSetsReplyAllocs measured when it was
// set (none) plus a small margin.
const setsReplyAllocCeiling = 3

// TestSetsReplyAllocs bounds what encoding fixedPartition into a reused
// buffer allocates.
func TestSetsReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sets := fixedPartition()
	buf := appendSetsReply(nil, "s1", "union-v4", sets)
	allocs := testing.AllocsPerRun(50, func() {
		buf = appendSetsReply(buf[:0], "s1", "union-v4", sets)
	})
	if allocs > setsReplyAllocCeiling {
		t.Errorf("appendSetsReply: %.1f allocs per reply, want <= %d", allocs, setsReplyAllocCeiling)
	}
}

// BenchmarkSetsReply prices encoding one /v1/sets reply for fixedPartition:
// appendSetsReply into a reused buffer, and the reference encoding.
func BenchmarkSetsReply(b *testing.B) {
	sets := fixedPartition()
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendSetsReply(buf[:0], "s1", "union-v4", sets)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			n = referenceSetsReply("s1", "union-v4", sets).Body.Len()
		}
		b.SetBytes(int64(n))
	})
}
