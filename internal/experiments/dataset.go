// Package experiments implements one harness per table and figure of the
// paper's evaluation: it scans a synthetic world from the two vantage
// points (active, Censys), extracts identifiers, runs the alias/dual-stack
// inference, and renders the same rows and curves the paper reports.
//
// # The finished-Dataset invariant
//
// Collection and analysis are strictly phased. Every sweep hands each
// observation once to its campaign's sink, and a Dataset is built complete
// when the sweeps end — by the in-RAM collector, by Union, by ReplayEnv, or
// by the stream seal pass. Nothing appends to a Dataset afterwards. All
// derived views — identifier groups, family and non-singleton filters,
// address universes, merged partitions, the MIDAR verification run — are
// memoized under sync.Once and shared by every table, figure, and facade
// accessor (see views.go). Cached views are shared slices and must be
// treated as read-only. Because the views are concurrency-safe and the one
// clock-mutating computation (the MIDAR run) is keyed and executed once,
// Env.RenderAll can generate every artifact in parallel with output
// byte-identical to a sequential render.
package experiments

import (
	"net/netip"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/resolver"
)

// Dataset is one source's scan yield: identifier observations per protocol,
// IPv4 and IPv6 mixed (family splits happen at analysis time, as in the
// paper's tables). It is immutable once built, and every derived view
// (identifier groups, family filters, address universes, merged partitions)
// is computed once and cached — see views.go.
type Dataset struct {
	// Name is the source label ("Active", "Censys", "Union").
	Name string
	// Obs maps protocol to its identifier observations, each campaign's
	// sorted by address; a union lists its parts' observations in part
	// order. A stream-collected dataset leaves Obs empty: its observations
	// live in the log, and EachObs reads them. Read-only.
	Obs map[ident.Protocol][]alias.Observation
	// NonStandardPortSSH counts SSH services found on non-default ports
	// and excluded from analysis (the paper drops Censys's 5.6M of them).
	NonStandardPortSSH int

	// addrs holds each protocol's sorted distinct addresses, both families
	// mixed, filled when the dataset is built.
	addrs [numProto][]netip.Addr
	views datasetViews
	// stream, when set, marks an out-of-core dataset: its observations live
	// in one folded epoch of the observation log, and the seal pass that
	// built it already fed its session. See stream.go.
	stream *streamSource
	// snmp, set on an Env's union, is the active scan the union reads its
	// SNMPv3 groups from. The active scan is SNMPv3's single source (Censys
	// carries none), so the union's SNMPv3 observations are its own, and
	// the union never groups them a second time.
	snmp *Dataset
}

// emptyDataset starts a dataset with its own resolver session; the
// constructors fill it before anyone reads it.
func emptyDataset(name string) *Dataset {
	d := &Dataset{Name: name, Obs: make(map[ident.Protocol][]alias.Observation)}
	d.views.session = resolver.NewSession()
	return d
}

// newDataset builds an in-RAM dataset from each protocol's observations,
// sorted by address. Its session is fed a protocol's observations when
// that protocol's groups are first read (NonSingletonSets).
func newDataset(name string, obs [numProto][]alias.Observation) *Dataset {
	d := emptyDataset(name)
	for _, p := range ident.Protocols {
		if len(obs[p]) == 0 {
			continue
		}
		d.Obs[p] = obs[p]
		for _, o := range obs[p] {
			d.addrs[p] = appendAddr(d.addrs[p], o.Addr)
		}
	}
	return d
}

// Union merges several datasets into one named dataset: each protocol's
// observations are the parts' in part order, and its addresses the merge of
// theirs. Duplicate observations collapse during grouping.
func Union(name string, parts ...*Dataset) *Dataset {
	out := emptyDataset(name)
	for _, part := range parts {
		if part == nil {
			continue
		}
		for _, p := range ident.Protocols {
			if obs := part.Obs[p]; len(obs) > 0 {
				out.Obs[p] = append(out.Obs[p], obs...)
			}
			out.addrs[p] = mergeAddrs(out.addrs[p], part.addrs[p])
		}
		out.NonStandardPortSSH += part.NonStandardPortSSH
	}
	return out
}

// Addrs returns the distinct responsive addresses for a protocol, optionally
// filtered to one family (v4=true/false; pass nil for both), sorted. The
// universe is derived once and shared — treat the result as read-only.
func (d *Dataset) Addrs(p ident.Protocol, v4 *bool) []netip.Addr {
	return d.views.addrs[p][selIdx(v4)].get(func() []netip.Addr {
		return filterFam(d.addrs[p], v4)
	})
}

// AllAddrs returns the distinct addresses across every protocol (Table 1's
// union row), optionally family-filtered. Cached and shared — treat the
// result as read-only.
func (d *Dataset) AllAddrs(v4 *bool) []netip.Addr {
	return d.views.allAddrs[selIdx(v4)].get(func() []netip.Addr {
		var merged []netip.Addr
		for _, p := range ident.Protocols {
			merged = mergeAddrs(merged, d.addrs[p])
		}
		return filterFam(merged, v4)
	})
}

// appendAddr extends a sorted distinct address list with the next address
// of a sorted run — consecutive-dedup is enough, no hash set needed.
func appendAddr(addrs []netip.Addr, a netip.Addr) []netip.Addr {
	if n := len(addrs); n > 0 && addrs[n-1] == a {
		return addrs
	}
	return append(addrs, a)
}

// mergeAddrs merges two sorted distinct address lists into one.
func mergeAddrs(a, b []netip.Addr) []netip.Addr {
	out := make([]netip.Addr, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// filterFam narrows a sorted address list to one family; nil keeps both.
func filterFam(addrs []netip.Addr, v4 *bool) []netip.Addr {
	if v4 == nil {
		return addrs
	}
	out := make([]netip.Addr, 0, len(addrs))
	for _, a := range addrs {
		if a.Is4() == *v4 {
			out = append(out, a)
		}
	}
	return out
}

// v4ptr and v6ptr are family selectors for Addrs/AllAddrs.
var (
	v4true  = true
	v4false = false
	// V4 selects IPv4 observations.
	V4 = &v4true
	// V6 selects IPv6 observations.
	V6 = &v4false
)
