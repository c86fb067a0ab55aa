// Package resolver is the alias-resolution subsystem: the step that converts
// protocol identifier observations into alias sets — the paper's
// contribution — behind one two-level interface.
//
// # Architecture
//
// A Backend is a factory for one resolution strategy; Open yields a Session,
// the stateful handle every consumer talks to. The Session contract is four
// methods:
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
//   - Close: release the session's resources and surface any deferred
//     failure (remote backends accumulate a sticky error; the in-process
//     one never fails).
//
// One contract means one wiring: the sealed analysis views group and merge
// through a Session, the daemon holds a Session per tenant, cmd/resolve feeds
// one from a file — and a backend whose state lives in other processes
// (internal/distres) plugs into all of them without special cases.
//
// The in-process backend is "batch" (NewBatch): every Observe lands in its
// identifier's sorted bucket immediately, so Sets is a snapshot, and Merged
// is a union-find over an address-interning table the session owns.
// Out-of-process backends register themselves by name (Register); linking
// internal/distres adds "distributed", which partitions the identifier space
// across worker processes. Both canonicalise through alias.SortSets, so for
// identical inputs they produce byte-identical alias sets at any worker
// count — the property the scenario matrix asserts on every preset.
package resolver

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// Backend is a factory for one alias-resolution strategy. Implementations
// must be safe for concurrent use; the sessions they open are independent.
type Backend interface {
	// Name is the stable identifier used by CLI flags, reports, and
	// benchmarks ("batch", "distributed").
	Name() string
	// Open starts one resolution session. The in-process backend never
	// fails; remote backends may (worker spawn, connection refused).
	Open(opts Options) (Session, error)
}

// Options tune one session at Open time. No backend reads an option today;
// the type keeps Open's signature stable for callers that pass Options{}.
type Options struct{}

// Session is one live resolution state: observations in, canonical alias
// sets out. Implementations must be safe for concurrent use by multiple
// goroutines — Observe may race with Observe, and Sets/Merged may interleave
// with Observe, snapshotting the observations applied so far — and must
// produce byte-identical output for identical input regardless of arrival
// order or internal concurrency.
type Session interface {
	// Observe consumes one identifier observation; its protocol is
	// o.ID.Proto. Duplicate (identifier, address) observations collapse.
	Observe(o alias.Observation)
	// Sets snapshots one protocol's observations into canonical alias sets,
	// one per distinct identifier, singletons included — alias.Group
	// semantics. A failed remote session returns nil (see Close).
	Sets(p ident.Protocol) []alias.Set
	// Merged consolidates alias-set partitions: any two sets sharing an
	// address collapse into one — alias.Merge semantics. Independent of the
	// session's observed state. A failed remote session returns nil.
	Merged(groups ...[]alias.Set) []alias.Set
	// Close releases the session and reports the first error the session
	// absorbed (nil for the in-process backend). Idempotent.
	Close() error
}

// LiveFeeder is implemented by backends whose sessions should be fed
// observations online during collection: Observe is cheap (constant-time
// local work), so the scan worker pools stream into the session directly.
// Backends without the marker are fed lazily from the sealed dataset at
// first Sets call.
type LiveFeeder interface {
	FeedLive() bool
}

// FeedsLive reports whether b wants its sessions fed during collection.
func FeedsLive(b Backend) bool {
	f, ok := b.(LiveFeeder)
	return ok && f.FeedLive()
}

// registry holds the backends registered beyond the built-in one.
var registry struct {
	mu        sync.Mutex
	factories map[string]func(workers int) Backend
}

// Register installs an out-of-process backend constructor under its flag
// name; workers is the fan-out bound the caller passed New. Registering the
// built-in name or registering twice panics — both are wiring bugs.
func Register(name string, factory func(workers int) Backend) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if name == builtinName {
		panic("resolver: Register of built-in backend " + name)
	}
	if _, dup := registry.factories[name]; dup {
		panic("resolver: duplicate Register of backend " + name)
	}
	if registry.factories == nil {
		registry.factories = make(map[string]func(workers int) Backend)
	}
	registry.factories[name] = factory
}

// builtinName is the in-process backend, first in report order.
const builtinName = "batch"

// Names lists the available backends: the built-in one first, then any
// registered backends sorted by name. The list depends on what the binary
// links — "distributed" appears wherever internal/distres does.
func Names() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	extra := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	return append([]string{builtinName}, extra...)
}

// New resolves a backend factory by name. The empty name selects the batch
// default; workers bounds the fan-out of registered backends that shard
// (worker processes for distributed; 0 picks the backend's default) and is
// ignored by batch.
func New(name string, workers int) (Backend, error) {
	if name == "" || name == builtinName {
		return NewBatch(), nil
	}
	registry.mu.Lock()
	factory, ok := registry.factories[name]
	registry.mu.Unlock()
	if ok {
		return factory(workers), nil
	}
	return nil, fmt.Errorf("resolver: unknown backend %q (have: %s)",
		name, strings.Join(Names(), ", "))
}
