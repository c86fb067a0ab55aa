package resolver

import (
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// numProto is the number of identifier protocols sessions index by.
const numProto = 3

// batchBackend is the in-process backend's factory.
type batchBackend struct{}

// NewBatch returns the in-process backend. Its sessions group every
// observation as it arrives — one alias.Grouper per protocol, each behind its
// own mutex, so the protocols feed independently and Sets is a snapshot of
// the observations applied so far. Merged is alias.MergeWith's union-find
// over an address-interning table the session owns, so the repeated merges
// of one analysis run (per-family, per-source, dual-stack unions) reuse one
// hash index.
func NewBatch() Backend { return batchBackend{} }

// NewStreaming returns the in-process backend.
//
// Deprecated: the streaming backend was folded into the batch session, which
// now groups each observation as it arrives. Use NewBatch.
func NewStreaming() Backend { return NewBatch() }

// Name implements Backend.
func (batchBackend) Name() string { return builtinName }

// Open implements Backend with empty groupers and a fresh interning table.
func (batchBackend) Open(Options) (Session, error) {
	return &batchSession{table: alias.NewAddrTable()}, nil
}

// batchSession is one in-process resolution state.
type batchSession struct {
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
func (s *batchSession) Observe(o alias.Observation) {
	pg := &s.groups[o.ID.Proto]
	pg.mu.Lock()
	pg.g.Observe(o)
	pg.mu.Unlock()
}

// Sets implements Session by snapshotting one protocol's grouper. It may run
// concurrently with Observe; observations landing after the snapshot begins
// appear in the next call.
func (s *batchSession) Sets(p ident.Protocol) []alias.Set {
	pg := &s.groups[p]
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.g.Sets()
}

// Merged implements Session via alias.MergeWith over the shared table.
func (s *batchSession) Merged(groups ...[]alias.Set) []alias.Set {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	return alias.MergeWith(s.table, groups...)
}

// Close implements Session; a batch session holds no external resources.
func (s *batchSession) Close() error { return nil }
