// Package ptrdns implements the generic DNS-based dual-stack inference the
// paper compares its approach against (Czyz et al. NDSS '16; Luckie et al.
// IMC '19 learn router-name regexes): if an IPv4 and an IPv6 address resolve
// to the same PTR hostname, they are inferred to belong to one machine.
//
// The technique's weaknesses are structural and reproduced here: PTR
// coverage is partial (especially for IPv6), many names are generic
// address-derived strings with no pairing value, and shared service names
// (www., mail.) create false pairs. The identifier-based approach of the
// paper sidesteps all three.
package ptrdns

import (
	"net/netip"
	"sort"
	"strings"

	"aliaslimit/internal/alias"
)

// Registry is a PTR zone: address → hostname. Worlds generate one; a real
// deployment would bulk-resolve in-addr.arpa / ip6.arpa.
type Registry map[netip.Addr]string

// IsGeneric reports whether a hostname is an address-derived template name
// ("1-2-3-4.dynamic.example.net", "host-...") that carries no device
// identity. Real pipelines filter these with learned regexes; this
// implementation uses the conventional markers.
func IsGeneric(name string) bool {
	lower := strings.ToLower(name)
	for _, marker := range []string{"dynamic", "dhcp", "pool", "dyn.", "host-", "unassigned", "rev."} {
		if strings.Contains(lower, marker) {
			return true
		}
	}
	return false
}

// InferDualStack groups addresses by PTR hostname and returns the sets that
// span both families. Generic names are skipped. The returned sets are
// sorted canonically.
func InferDualStack(reg Registry) []alias.Set {
	byName := make(map[string][]netip.Addr)
	for addr, name := range reg {
		if name == "" || IsGeneric(name) {
			continue
		}
		byName[name] = append(byName[name], addr)
	}
	var out []alias.Set
	for _, addrs := range byName {
		s := alias.NewSet(addrs...)
		if s.IsDualStack() {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addrs[0].Less(out[j].Addrs[0]) })
	return out
}

// Compare evaluates a PTR-derived dual-stack inference against a reference
// partition (e.g. the identifier-based sets): how many PTR pairs are
// confirmed by the reference, how many contradict it, and how many the
// reference does not cover.
type Compare struct {
	// Confirmed PTR sets are subsets of one reference set.
	Confirmed int
	// Contradicted PTR sets span two or more reference sets.
	Contradicted int
	// Uncovered PTR sets touch addresses outside the reference entirely.
	Uncovered int
}

// CompareAgainst computes the comparison.
func CompareAgainst(ptrSets, reference []alias.Set) Compare {
	owner := make(map[netip.Addr]int)
	for i, s := range reference {
		for _, a := range s.Addrs {
			owner[a] = i + 1 // 0 means unknown
		}
	}
	var c Compare
	for _, s := range ptrSets {
		first := 0
		consistent := true
		covered := true
		for _, a := range s.Addrs {
			o := owner[a]
			if o == 0 {
				covered = false
				continue
			}
			if first == 0 {
				first = o
			} else if o != first {
				consistent = false
			}
		}
		switch {
		case first == 0 || !covered && first == 0:
			c.Uncovered++
		case !consistent:
			c.Contradicted++
		case !covered:
			c.Uncovered++
		default:
			c.Confirmed++
		}
	}
	return c
}
