package alias

import "net/netip"

// AddrTable interns addresses into dense int32 ids. The cross-protocol merge
// is a union-find over addresses; interning through a table that persists
// across Merge calls lets the repeated merges an analysis session performs
// (per-family unions, dual-stack union, per-source unions over the same
// address universe) reuse one hash table instead of rebuilding it per call.
//
// A table is not safe for concurrent use; callers that share one across
// goroutines must serialise access (a resolver session guards its table
// with a mutex).
type AddrTable struct {
	index map[netip.Addr]int32
	addrs []netip.Addr

	// mark and pos implement per-call membership on top of the persistent
	// table: mark[i] == epoch means address i participates in the current
	// MergeWith call, and pos[i] is its dense index within that call.
	mark  []uint32
	pos   []int32
	epoch uint32
}

// NewAddrTable returns an empty interning table.
func NewAddrTable() *AddrTable {
	return &AddrTable{index: make(map[netip.Addr]int32)}
}

// Intern returns the dense id of a, assigning the next free id on first
// sight. Ids are stable for the lifetime of the table.
func (t *AddrTable) Intern(a netip.Addr) int32 {
	if i, ok := t.index[a]; ok {
		return i
	}
	i := int32(len(t.addrs))
	t.index[a] = i
	t.addrs = append(t.addrs, a)
	t.mark = append(t.mark, 0)
	t.pos = append(t.pos, 0)
	return i
}

// Len returns the number of interned addresses.
func (t *AddrTable) Len() int { return len(t.addrs) }
