// Package asview aggregates alias and dual-stack sets by autonomous system:
// the per-AS distributions of Figures 5 and 6 and the top-10 tables
// (Tables 5 and 6) of the paper's AS-level analysis.
//
// The aggregation is a join through a Mapper, the address→origin-AS oracle;
// FromMap lifts a synthetic world's assignment table. On top of it,
// SpreadPerSet measures how many ASes one set straddles (Figure 5) and
// SetsPerAS counts sets per AS — a set spanning several ASes counts once in
// each, the paper's per-AS accounting (Figure 6). Top orders ASes by count
// with ASN as the deterministic tiebreak, which is what lets the rendered
// tables take part in the byte-determinism contract. The same counts feed
// ecdf for the figure curves and the aliasd daemon's /v1/asview endpoint.
package asview

import (
	"net/netip"
	"sort"

	"aliaslimit/internal/alias"
)

// Mapper resolves an address to its origin AS. The synthetic world's
// AddrASN map satisfies it through FromMap.
type Mapper interface {
	ASNOf(addr netip.Addr) (uint32, bool)
}

// MapFunc adapts a function to Mapper.
type MapFunc func(addr netip.Addr) (uint32, bool)

// ASNOf implements Mapper.
func (f MapFunc) ASNOf(addr netip.Addr) (uint32, bool) { return f(addr) }

// FromMap wraps a plain address→ASN map.
func FromMap(m map[netip.Addr]uint32) Mapper {
	return MapFunc(func(a netip.Addr) (uint32, bool) {
		asn, ok := m[a]
		return asn, ok
	})
}

// ASNsOfSet returns the distinct ASes a set's addresses originate from,
// ascending. Unmapped addresses are skipped.
func ASNsOfSet(m Mapper, s alias.Set) []uint32 {
	seen := map[uint32]bool{}
	for _, a := range s.Addrs {
		if asn, ok := m.ASNOf(a); ok {
			seen[asn] = true
		}
	}
	out := make([]uint32, 0, len(seen))
	for asn := range seen {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SpreadPerSet returns, for each set, how many distinct ASes it spans — the
// Figure 5 distribution. Order follows the input sets.
func SpreadPerSet(m Mapper, sets []alias.Set) []int {
	out := make([]int, len(sets))
	for i, s := range sets {
		out[i] = len(ASNsOfSet(m, s))
	}
	return out
}

// SetsPerAS counts sets per AS. A set spanning several ASes counts once for
// each (it is an alias set "in" every AS it touches), matching the paper's
// per-AS accounting.
func SetsPerAS(m Mapper, sets []alias.Set) map[uint32]int {
	counts := map[uint32]int{}
	for _, s := range sets {
		for _, asn := range ASNsOfSet(m, s) {
			counts[asn]++
		}
	}
	return counts
}

// ASCount is one row of a top-N table. The JSON tags are the aliasd
// /v1/asview wire shape.
type ASCount struct {
	// ASN is the autonomous system number.
	ASN uint32 `json:"asn"`
	// Sets is the number of alias (or dual-stack) sets attributed to it.
	Sets int `json:"sets"`
}

// Top returns the n largest ASes by set count, ties broken by ASN for
// deterministic output.
func Top(counts map[uint32]int, n int) []ASCount {
	out := make([]ASCount, 0, len(counts))
	for asn, c := range counts {
		out = append(out, ASCount{ASN: asn, Sets: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sets != out[j].Sets {
			return out[i].Sets > out[j].Sets
		}
		return out[i].ASN < out[j].ASN
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// CountASNs returns the number of distinct ASes across a plain address list
// (Table 1's #ASN columns).
func CountASNs(m Mapper, addrs []netip.Addr) int {
	seen := map[uint32]bool{}
	for _, a := range addrs {
		if asn, ok := m.ASNOf(a); ok {
			seen[asn] = true
		}
	}
	return len(seen)
}
