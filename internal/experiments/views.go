package experiments

import (
	"net/netip"
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/topo"
)

// This file is the memoized analysis layer. A Dataset is finished when it
// is built; from then on every derived view — identifier groups, family
// filters, non-singleton filters, address universes, merged partitions — is
// computed at most once and shared by every table, figure, and facade
// accessor. All views are computed under sync.Once, so concurrent artifact
// generation (Env.RenderAll) is safe and deterministic: the first caller
// computes, everyone else reads.
//
// Returned slices are shared views: callers must treat them as read-only.

// numProto is the number of identifier protocols the views index by.
const numProto = 3

// famIdx maps an address family to its view slot.
func famIdx(v4 bool) int {
	if v4 {
		return 0
	}
	return 1
}

// selIdx maps an Addrs family selector (nil / V4 / V6) to its view slot.
func selIdx(v4 *bool) int {
	switch {
	case v4 == nil:
		return 0
	case *v4:
		return 1
	default:
		return 2
	}
}

// memo is a lazily computed, concurrency-safe cache cell.
type memo[T any] struct {
	once sync.Once
	v    T
}

// get returns the cached value, computing it on first use.
func (m *memo[T]) get(f func() T) T {
	m.once.Do(func() { m.v = f() })
	return m.v
}

// datasetViews caches every per-dataset derivation.
type datasetViews struct {
	groups   [numProto]memo[[]alias.Set]     // Group per protocol
	nsAll    [numProto]memo[[]alias.Set]     // NonSingleton(Group)
	famNS    [numProto][2]memo[[]alias.Set]  // NonSingleton(FilterFamily(nsAll))
	mergedNS [2]memo[[]alias.Set]            // per-family merge of the three famNS
	addrs    [numProto][3]memo[[]netip.Addr] // per-protocol address universes
	allAddrs [3]memo[[]netip.Addr]           // cross-protocol address universes

	// session is the resolver session every grouping and merge in this
	// dataset's views routes through; sessions are concurrency-safe, so no
	// extra serialisation is needed here.
	session resolver.Session
}

// NonSingletonSets returns the protocol's non-singleton identifier groups
// (both families).
func (d *Dataset) NonSingletonSets(p ident.Protocol) []alias.Set {
	return d.views.nsAll[p].get(func() []alias.Set { return alias.NonSingleton(d.Sets(p)) })
}

// NonSingletonFamilySets returns the protocol's identifier groups filtered
// to one address family, keeping those still of two or more addresses — the
// unit every per-protocol table cell counts. It filters NonSingletonSets: a
// singleton filters to at most a singleton, so the result is the same as
// filtering every group (alias.TestSingletonIdentities).
func (d *Dataset) NonSingletonFamilySets(p ident.Protocol, v4 bool) []alias.Set {
	return d.views.famNS[p][famIdx(v4)].get(func() []alias.Set {
		return alias.NonSingleton(alias.FilterFamily(d.NonSingletonSets(p), v4))
	})
}

// MergedFamilyNonSingleton returns the dataset's cross-protocol union
// partition for one family: the merge of its three per-protocol
// non-singleton views. A merge of non-singleton sets holds only
// non-singleton sets.
func (d *Dataset) MergedFamilyNonSingleton(v4 bool) []alias.Set {
	return d.views.mergedNS[famIdx(v4)].get(func() []alias.Set {
		return d.views.session.Merged(
			d.NonSingletonFamilySets(ident.SSH, v4),
			d.NonSingletonFamilySets(ident.BGP, v4),
			d.NonSingletonFamilySets(ident.SNMP, v4),
		)
	})
}

// envViews caches the cross-dataset derivations: the canonical union
// partitions (SSH and BGP from the union dataset, SNMPv3 from the active
// scan, as the paper combines them), the all-family dual-stack merge, and
// the MIDAR verification runs.
type envViews struct {
	unionFamNS [2]memo[[]alias.Set]
	dualMerged memo[[]alias.Set]
	dualStack  memo[[]alias.Set]

	mu        sync.Mutex
	midarRuns map[midarKey]*MIDARResult
}

// midarKey identifies one memoized MIDAR verification run.
type midarKey struct {
	sample int
	cfg    midar.Config
}

// MIDARResult is the cached outcome of one MIDAR verification pass.
type MIDARResult struct {
	// Sample is the candidate sets handed to the pipeline.
	Sample []alias.Set
	// Results is the per-set outcome list.
	Results []midar.SetResult
	// Tally aggregates the outcomes.
	Tally midar.Tally
}

// newEnv assembles an environment from its finished datasets, with a fresh
// resolver session for the cross-dataset merges, and sets the Censys
// non-standard-port exclusion on the Censys dataset and the union. Each
// dataset holds its own session, so the concurrent render paths keep the
// merge parallelism the per-dataset tables used to provide.
func newEnv(w *topo.World, active, censys, both *Dataset) *Env {
	censys.NonStandardPortSSH = nonStandardPortSSH(censys)
	both.NonStandardPortSSH = censys.NonStandardPortSSH
	return &Env{World: w, Active: active, Censys: censys, Both: both, session: resolver.NewSession()}
}

// Close runs the environment's cleanup hook once — for a facade-built Env,
// the teardown of its temporary stream-collection spill — and reports its
// error. Idempotent; the analysis views already computed stay readable.
func (e *Env) Close() error {
	var err error
	e.closeOnce.Do(func() {
		if e.onClose != nil {
			err = e.onClose()
		}
	})
	return err
}

// UnionFamilyNonSingleton returns the canonical cross-protocol union
// partition for one family — the paper's headline union alias-set count:
// SSH and BGP from the union dataset, SNMPv3 from the active scan (its
// single source), merged. A merge of non-singleton sets holds only
// non-singleton sets.
func (e *Env) UnionFamilyNonSingleton(v4 bool) []alias.Set {
	return e.views.unionFamNS[famIdx(v4)].get(func() []alias.Set {
		return e.session.Merged(
			e.Both.NonSingletonFamilySets(ident.SSH, v4),
			e.Both.NonSingletonFamilySets(ident.BGP, v4),
			e.Active.NonSingletonFamilySets(ident.SNMP, v4),
		)
	})
}

// DualStackMerged returns the all-family merge of every protocol's union
// non-singleton identifier groups — the partition dual-stack analysis reads.
// Singletons stay out: one adds no union edge, only a one-address component
// DualStack would drop, so DualStackSets is the same as merging every group.
func (e *Env) DualStackMerged() []alias.Set {
	return e.views.dualMerged.get(func() []alias.Set {
		return e.session.Merged(e.Both.NonSingletonSets(ident.SSH),
			e.Both.NonSingletonSets(ident.BGP), e.Both.NonSingletonSets(ident.SNMP))
	})
}

// DualStackSets returns the union dual-stack sets (each spans both
// families).
func (e *Env) DualStackSets() []alias.Set {
	return e.views.dualStack.get(func() []alias.Set {
		return alias.DualStack(e.DualStackMerged())
	})
}

// MIDARRun verifies the sampled SSH sets with the IPID pipeline, memoized
// per (sample size, config). The pipeline advances the world's simulated
// clock while probing, so memoization also pins the measurement chronology:
// one verification run per configuration, no matter how many tables or
// accessors ask for the tally.
func (e *Env) MIDARRun(maxSets int, cfg midar.Config) *MIDARResult {
	key := midarKey{sample: maxSets, cfg: cfg}
	e.views.mu.Lock()
	defer e.views.mu.Unlock()
	if r, ok := e.views.midarRuns[key]; ok {
		return r
	}
	sample := e.midarSample(maxSets)
	session := midar.NewSession(e.World.Fabric.Vantage(topo.VantageMIDAR), e.World.Clock, cfg)
	results, tally := session.VerifySets(sample)
	r := &MIDARResult{Sample: sample, Results: results, Tally: tally}
	if e.views.midarRuns == nil {
		e.views.midarRuns = make(map[midarKey]*MIDARResult)
	}
	e.views.midarRuns[key] = r
	return r
}
