// Package resolver is the alias-resolution subsystem: the step that converts
// protocol identifier observations into alias sets — the paper's
// contribution — behind one session type.
//
// # Architecture
//
// NewSession opens a Session, the stateful handle every consumer talks to.
// The Session contract is three methods:
//
//   - Observe: consume one identifier observation, online, in any order,
//     from any number of goroutines. Observations route to their protocol by
//     the identifier's Proto field.
//   - Sets: snapshot one protocol's observations into canonical alias sets —
//     one set per distinct identifier, singletons included (alias.Group
//     semantics), byte-identical regardless of arrival order.
//   - Merged: consolidate alias-set partitions into connected components —
//     any two sets sharing an address collapse (alias.Merge semantics).
//     Merged is a pure function of its arguments, independent of the
//     session's observed state.
//
// One contract means one wiring: the sealed analysis views group and merge
// through a Session, the daemon holds a Session per tenant, and cmd/resolve
// feeds one from a file.
//
// Every Observe lands in its identifier's sorted bucket immediately, so Sets
// is a snapshot, and Merged is a union-find over an address-interning table
// the session owns. Both emit sets in alias's canonical order, so identical
// inputs produce byte-identical alias sets whatever the arrival order.
package resolver

import (
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// Name labels the resolver in scenario reports, durable-log manifests and
// daemon session info. It is the name the in-process resolver carried when
// several backends existed, so those outputs keep their bytes.
const Name = "batch"

// Session is one live resolution state: observations in, canonical alias
// sets out. It is safe for concurrent use by multiple goroutines — Observe
// may race with Observe, and Sets/Merged may interleave with Observe,
// snapshotting the observations applied so far — and produces byte-identical
// output for identical input regardless of arrival order or concurrency.
type Session interface {
	// Observe consumes one identifier observation; its protocol is
	// o.ID.Proto. Duplicate (identifier, address) observations collapse.
	Observe(o alias.Observation)
	// Sets snapshots one protocol's observations into canonical alias sets,
	// one per distinct identifier, singletons included — alias.Group
	// semantics.
	Sets(p ident.Protocol) []alias.Set
	// Merged consolidates alias-set partitions: any two sets sharing an
	// address collapse into one — alias.Merge semantics. Independent of the
	// session's observed state.
	Merged(groups ...[]alias.Set) []alias.Set
	// Close does nothing and returns nil.
	//
	// Deprecated: a session holds no external resources; nothing needs
	// closing.
	Close() error
}

// numProto is the number of identifier protocols sessions index by.
const numProto = 3

// NewSession opens an empty session. Its groupers are one alias.Grouper per
// protocol, each behind its own mutex, so the protocols feed independently
// and Sets is a snapshot of the observations applied so far. Merged is
// alias.MergeWith's union-find over an address-interning table the session
// owns, so the repeated merges of one analysis run (per-family, per-source,
// dual-stack unions) reuse one hash index.
func NewSession() Session { return &session{table: alias.NewAddrTable()} }

// session is the in-process resolution state.
type session struct {
	// groups is indexed by ident.Protocol (SSH, BGP, SNMP).
	groups [numProto]struct {
		mu sync.Mutex
		g  alias.Grouper
	}

	// tableMu serialises merges over the shared interning table.
	tableMu sync.Mutex
	table   *alias.AddrTable
}

// Observe implements Session by landing the observation in its identifier's
// bucket.
func (s *session) Observe(o alias.Observation) {
	pg := &s.groups[o.ID.Proto]
	pg.mu.Lock()
	pg.g.Observe(o)
	pg.mu.Unlock()
}

// Sets implements Session by snapshotting one protocol's grouper. It may run
// concurrently with Observe; observations landing after the snapshot begins
// appear in the next call.
func (s *session) Sets(p ident.Protocol) []alias.Set {
	pg := &s.groups[p]
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.g.Sets()
}

// Merged implements Session via alias.MergeWith over the shared table.
func (s *session) Merged(groups ...[]alias.Set) []alias.Set {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	return alias.MergeWith(s.table, groups...)
}

// Close implements Session; it has nothing to release.
func (s *session) Close() error { return nil }
