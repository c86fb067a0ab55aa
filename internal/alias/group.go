package alias

import (
	"net/netip"
	"slices"

	"aliaslimit/internal/ident"
)

// Grouper is the merge-as-you-go grouping core every resolver session folds
// through: observations are folded into per-identifier buckets one at a time,
// each bucket kept sorted and de-duplicated by insertion, so producing the
// final alias sets never materialises or sorts the full observation slice.
// The only remaining sort is the canonical ordering of the (far fewer) output
// sets — the invariant the megascale path relies on.
//
// A Grouper is an arena: Reset keeps the identifier table's buckets and every
// per-identifier address bucket at capacity, so a steady-state
// Reset→Observe×N→AppendSets cycle over a stable identifier population
// performs no allocations (the alloc gate in BENCH_baseline.json enforces
// ≤ 10 allocs/op). The zero value is ready to use. A Grouper is not safe for
// concurrent use; callers that share one must serialise access (a resolver
// session guards each protocol's grouper with a mutex).
type Grouper struct {
	ids     map[ident.Identifier]int32
	buckets [][]netip.Addr
}

// NewGrouper returns an empty grouping arena.
func NewGrouper() *Grouper {
	return &Grouper{ids: make(map[ident.Identifier]int32)}
}

// Reset forgets all observations but keeps every internal buffer at capacity,
// making the arena reusable without reallocation.
func (g *Grouper) Reset() {
	clear(g.ids)
	for i := range g.buckets {
		g.buckets[i] = g.buckets[i][:0]
	}
	g.buckets = g.buckets[:0]
}

// Observe folds one observation into its identifier's bucket, creating the
// bucket on first sight. The bucket stays sorted and duplicate (identifier,
// address) observations collapse at insertion, so no post-hoc sort or dedup
// pass exists.
func (g *Grouper) Observe(o Observation) {
	gi, ok := g.ids[o.ID]
	if !ok {
		gi = int32(len(g.buckets))
		if g.ids == nil {
			g.ids = make(map[ident.Identifier]int32)
		}
		g.ids[o.ID] = gi
		if cap(g.buckets) > len(g.buckets) {
			// Reuse a retired bucket's backing array.
			g.buckets = g.buckets[:gi+1]
			g.buckets[gi] = g.buckets[gi][:0]
		} else {
			g.buckets = append(g.buckets, nil)
		}
	}
	b := g.buckets[gi]
	// Manual binary search: alias sets are small, and keeping the search
	// inline (no sort.Search closure) keeps the hot path allocation-free.
	lo, hi := 0, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].Less(o.Addr) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b) && b[lo] == o.Addr {
		return // duplicate observation collapses
	}
	b = append(b, netip.Addr{})
	copy(b[lo+1:], b[lo:])
	b[lo] = o.Addr
	g.buckets[gi] = b
}

// addrCount returns the total addresses across all buckets.
func (g *Grouper) addrCount() int {
	n := 0
	for _, b := range g.buckets {
		n += len(b)
	}
	return n
}

// AppendSets appends the current alias sets to dst, copying addresses into
// backing (every produced set slices backing, which is grown at most once),
// and returns both extended slices. The appended region of dst is in
// canonical order, so for the same observations the output is byte-identical
// to Group's. Passing dst[:0] and backing[:0] from the previous cycle makes
// the steady-state path allocation-free; the caller must treat sets from
// earlier cycles as invalidated once backing is reused.
func (g *Grouper) AppendSets(dst []Set, backing []netip.Addr) ([]Set, []netip.Addr) {
	if need := g.addrCount(); cap(backing)-len(backing) < need {
		grown := make([]netip.Addr, len(backing), len(backing)+need)
		copy(grown, backing)
		backing = grown
	}
	start := len(dst)
	for _, b := range g.buckets {
		if len(b) == 0 {
			continue
		}
		off := len(backing)
		backing = append(backing, b...)
		dst = append(dst, Set{Addrs: backing[off:len(backing):len(backing)]})
	}
	sortSets(dst[start:])
	return dst, backing
}

// Sets snapshots the current alias sets into freshly allocated canonical
// slices — the finalisation Group and every resolver session share.
func (g *Grouper) Sets() []Set {
	sets, _ := g.AppendSets(make([]Set, 0, len(g.buckets)), make([]netip.Addr, 0, g.addrCount()))
	return sets
}

// GroupSorted is the retired global-sort implementation of Group: intern
// identifiers to dense ids, sort all (id, addr) pairs once, and slice sets
// out of the sorted order. It is retained as the differential reference for
// the determinism gate (TestGrouperMatchesSortReference and the resolver
// corpus tests) — the hot path is Group's merge-as-you-go Grouper, which must
// stay byte-identical to this for every input.
func GroupSorted(obs []Observation) []Set {
	ids := make(map[ident.Identifier]int32, len(obs))
	pairs := make([]groupPair, len(obs))
	for i, o := range obs {
		id, ok := ids[o.ID]
		if !ok {
			id = int32(len(ids))
			ids[o.ID] = id
		}
		pairs[i] = groupPair{id: id, addr: o.Addr}
	}
	slices.SortFunc(pairs, func(a, b groupPair) int {
		if a.id != b.id {
			if a.id < b.id {
				return -1
			}
			return 1
		}
		return a.addr.Compare(b.addr)
	})
	// Walk the sorted pairs: identifier boundaries cut sets, adjacent equal
	// pairs collapse. addrs never outgrows its initial capacity, so every
	// set's Addrs aliases one allocation.
	addrs := make([]netip.Addr, 0, len(pairs))
	sets := make([]Set, 0, len(ids))
	start := 0
	for i, p := range pairs {
		if i > 0 && pairs[i-1].id != p.id {
			sets = append(sets, Set{Addrs: addrs[start:len(addrs):len(addrs)]})
			start = len(addrs)
		}
		if len(addrs) == start || addrs[len(addrs)-1] != p.addr {
			addrs = append(addrs, p.addr)
		}
	}
	if len(pairs) > 0 {
		sets = append(sets, Set{Addrs: addrs[start:len(addrs):len(addrs)]})
	}
	sortSets(sets)
	return sets
}
