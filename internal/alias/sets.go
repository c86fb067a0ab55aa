// Package alias implements the paper's inference pipeline: grouping
// addresses by identifier into alias sets, merging sets across protocols and
// data sources, deriving dual-stack sets, and the cross-technique validation
// metric of §2.6.
package alias

import (
	"net/netip"
	"slices"
	"sort"
	"strings"

	"aliaslimit/internal/ident"
)

// Observation is one (address, identifier) fact produced by a scan.
type Observation struct {
	// Addr is the responsive address.
	Addr netip.Addr
	// ID is the extracted device identifier.
	ID ident.Identifier
}

// Set is one alias set: the sorted, de-duplicated addresses that share an
// identifier (or, after merging, a connected component of shared
// identifiers).
type Set struct {
	// Addrs is sorted ascending and free of duplicates.
	Addrs []netip.Addr
}

// NewSet builds a Set from addresses, sorting and de-duplicating.
func NewSet(addrs ...netip.Addr) Set {
	as := make([]netip.Addr, len(addrs))
	copy(as, addrs)
	sort.Slice(as, func(i, j int) bool { return as[i].Less(as[j]) })
	out := as[:0]
	for i, a := range as {
		if i == 0 || as[i-1] != a {
			out = append(out, a)
		}
	}
	return Set{Addrs: out}
}

// Size returns the number of addresses in the set.
func (s Set) Size() int { return len(s.Addrs) }

// V4Count and V6Count split the set by address family.
func (s Set) V4Count() int {
	n := 0
	for _, a := range s.Addrs {
		if a.Is4() {
			n++
		}
	}
	return n
}

// V6Count returns the number of IPv6 addresses in the set.
func (s Set) V6Count() int { return len(s.Addrs) - s.V4Count() }

// IsDualStack reports whether the set spans both address families —
// the paper's dual-stack criterion (§2.4).
func (s Set) IsDualStack() bool {
	return s.V4Count() > 0 && s.V6Count() > 0
}

// SetKey is a compact canonical binary key for a Set: a deterministic total
// order and exact-membership equality without the decimal formatting cost of
// Signature. Keys from sets over the same address population are equal iff
// the sets have identical membership. Use it wherever sets are sorted,
// sampled, or matched; Signature stays for human-readable output.
type SetKey string

// Key renders the binary key: one family tag byte plus the 16-byte expanded
// form per address, in the set's canonical (sorted) order. The tag byte keeps
// an IPv4 address distinct from its IPv4-mapped IPv6 equivalent.
func (s Set) Key() SetKey {
	b := make([]byte, 0, len(s.Addrs)*17)
	for _, a := range s.Addrs {
		if a.Is4() {
			b = append(b, 4)
		} else {
			b = append(b, 6)
		}
		a16 := a.As16()
		b = append(b, a16[:]...)
	}
	return SetKey(b)
}

// Signature returns a canonical string key for exact-membership comparison.
// It allocates per address; hot paths should use Key instead and keep
// Signature for human-readable CLI and log output.
func (s Set) Signature() string {
	var sb strings.Builder
	for i, a := range s.Addrs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(a.String())
	}
	return sb.String()
}

// compareSets is the canonical total order on sets: first address, then
// size, then element-wise comparison. A total order keeps the final set
// ordering independent of the (parallelism-dependent) order in which sets
// were produced.
func compareSets(a, b Set) int {
	if len(a.Addrs) == 0 || len(b.Addrs) == 0 {
		return len(a.Addrs) - len(b.Addrs)
	}
	if c := a.Addrs[0].Compare(b.Addrs[0]); c != 0 {
		return c
	}
	if len(a.Addrs) != len(b.Addrs) {
		return len(a.Addrs) - len(b.Addrs)
	}
	for i := range a.Addrs {
		if c := a.Addrs[i].Compare(b.Addrs[i]); c != 0 {
			return c
		}
	}
	return 0
}

// sortSets orders sets canonically for reproducibility.
func sortSets(sets []Set) {
	slices.SortFunc(sets, compareSets)
}

// groupPair is one interned observation: a dense identifier id and the
// observed address. Only the GroupSorted reference implementation still
// materialises these.
type groupPair struct {
	id   int32
	addr netip.Addr
}

// Group clusters observations by identifier: one Set per distinct
// identifier, including singletons. Duplicate (addr, id) observations — the
// same address seen by two data sources — collapse naturally.
//
// Observations are folded one at a time into per-identifier sorted buckets
// (a Grouper), so the input slice is never copied, globally sorted, or even
// required — resolver sessions feed the same core incrementally. GroupSorted
// keeps the retired global-sort implementation as the differential
// reference.
func Group(obs []Observation) []Set {
	var g Grouper
	for _, o := range obs {
		g.Observe(o)
	}
	return g.Sets()
}

// NonSingleton filters to sets with at least two addresses — the unit every
// table in the paper counts.
func NonSingleton(sets []Set) []Set {
	out := make([]Set, 0, len(sets))
	for _, s := range sets {
		if s.Size() >= 2 {
			out = append(out, s)
		}
	}
	return out
}

// DualStack filters to sets spanning both families (Table 4's unit). Note a
// dual-stack set may have exactly one v4 and one v6 address and still count,
// unlike NonSingleton's per-family view.
func DualStack(sets []Set) []Set {
	out := make([]Set, 0, len(sets))
	for _, s := range sets {
		if s.IsDualStack() {
			out = append(out, s)
		}
	}
	return out
}

// FilterFamily keeps only addresses of one family within each set, dropping
// sets that become empty. The paper's IPv4 tables are FilterFamily(v4) views
// of the underlying identifier groups.
func FilterFamily(sets []Set, v4 bool) []Set {
	// A counting pass sizes one backing array that every output set slices.
	n := 0
	for _, s := range sets {
		for _, a := range s.Addrs {
			if a.Is4() == v4 {
				n++
			}
		}
	}
	backing := make([]netip.Addr, 0, n)
	out := make([]Set, 0, len(sets))
	for _, s := range sets {
		start := len(backing)
		for _, a := range s.Addrs {
			if a.Is4() == v4 {
				backing = append(backing, a)
			}
		}
		if len(backing) > start {
			out = append(out, Set{Addrs: backing[start:len(backing):len(backing)]})
		}
	}
	sortSets(out)
	return out
}

// CoveredAddrs counts distinct addresses across sets.
func CoveredAddrs(sets []Set) int {
	seen := make(map[netip.Addr]bool)
	for _, s := range sets {
		for _, a := range s.Addrs {
			seen[a] = true
		}
	}
	return len(seen)
}

// Merge consolidates alias sets from multiple protocols or data sources: any
// two sets sharing an address collapse into one (§4.1's union). The inputs
// may contain singletons; the output contains every address that appeared,
// re-partitioned.
func Merge(groups ...[]Set) []Set {
	return MergeWith(NewAddrTable(), groups...)
}

// MergeWith is Merge with a caller-supplied interning table. Repeated merges
// over overlapping address populations (the analysis layer's per-family,
// per-source, and dual-stack unions) reuse the table's hash index instead of
// re-interning from scratch. The table is mutated; see AddrTable for the
// concurrency contract.
func MergeWith(t *AddrTable, groups ...[]Set) []Set {
	t.epoch++
	total := 0
	for _, sets := range groups {
		for _, s := range sets {
			total += len(s.Addrs)
		}
	}
	// One pass interns each address once, records in first-appearance order
	// the dense per-call ids (members) this merge operates on, and unions
	// each set's addresses with its first.
	members := make([]int32, 0, total)
	d := newDSU(total)
	for _, sets := range groups {
		for _, s := range sets {
			first := int32(-1)
			for _, a := range s.Addrs {
				i := t.Intern(a)
				if t.mark[i] != t.epoch {
					t.mark[i] = t.epoch
					t.pos[i] = int32(len(members))
					members = append(members, i)
				}
				if first < 0 {
					first = t.pos[i]
				} else {
					d.union(first, t.pos[i])
				}
			}
		}
	}
	// Lay the components out in one backing array: end, indexed by DSU root,
	// starts as the offset of the root's component (d.size holds its length)
	// and advances as members are placed, so every output set slices one
	// allocation.
	end := make([]int32, len(members))
	n, sets := int32(0), 0
	for m := range members {
		if d.parent[m] == int32(m) {
			end[m] = n
			n += d.size[m]
			sets++
		}
	}
	backing := make([]netip.Addr, len(members))
	for m, gid := range members {
		r := d.find(int32(m))
		backing[end[r]] = t.addrs[gid]
		end[r]++
	}
	out := make([]Set, 0, sets)
	for m := range members {
		if d.parent[m] == int32(m) {
			seg := backing[end[m]-d.size[m] : end[m] : end[m]]
			slices.SortFunc(seg, netip.Addr.Compare)
			out = append(out, Set{Addrs: seg})
		}
	}
	sortSets(out)
	return out
}

// Restrict drops addresses outside keep from every set and discards sets
// left with fewer than two addresses. This is the first step of the paper's
// cross-protocol validation: both partitions are compared only over the
// addresses responsive to both protocols.
func Restrict(sets []Set, keep map[netip.Addr]bool) []Set {
	out := make([]Set, 0, len(sets))
	for _, s := range sets {
		var kept []netip.Addr
		for _, a := range s.Addrs {
			if keep[a] {
				kept = append(kept, a)
			}
		}
		if len(kept) >= 2 {
			out = append(out, Set{Addrs: kept})
		}
	}
	sortSets(out)
	return out
}

// AddrSet builds the membership map of all addresses across sets.
func AddrSet(sets []Set) map[netip.Addr]bool {
	m := make(map[netip.Addr]bool)
	for _, s := range sets {
		for _, a := range s.Addrs {
			m[a] = true
		}
	}
	return m
}
