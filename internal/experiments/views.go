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

// groupSource returns the dataset whose identifier groups d reads for
// protocol p: d itself, or for SNMPv3 the active scan an Env's union is
// linked to (Dataset.snmp).
func (d *Dataset) groupSource(p ident.Protocol) *Dataset {
	if p == ident.SNMP && d.snmp != nil {
		return d.snmp
	}
	return d
}

// NonSingletonSets returns the protocol's identifier groups of two or more
// addresses (both families), grouped through the dataset's resolver
// session; a one-address group is neither copied nor sorted. An in-RAM
// dataset's observations go to the session here, on first use; a
// stream-collected dataset has empty Obs and a session its seal pass
// already fed. An Env's union returns the active scan's SNMPv3 groups.
func (d *Dataset) NonSingletonSets(p ident.Protocol) []alias.Set {
	if src := d.groupSource(p); src != d {
		return src.NonSingletonSets(p)
	}
	return d.views.nsAll[p].get(func() []alias.Set {
		for _, o := range d.Obs[p] {
			d.views.session.Observe(o)
		}
		return d.views.session.NonSingletonSets(p)
	})
}

// NonSingletonFamilySets returns the protocol's identifier groups filtered
// to one address family, keeping those still of two or more addresses — the
// unit every per-protocol table cell counts. It filters NonSingletonSets: a
// singleton filters to at most a singleton, so the result is the same as
// filtering every group (alias.TestSingletonIdentities).
func (d *Dataset) NonSingletonFamilySets(p ident.Protocol, v4 bool) []alias.Set {
	if src := d.groupSource(p); src != d {
		return src.NonSingletonFamilySets(p, v4)
	}
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

// envViews caches the union dataset's all-family dual-stack merge and the
// MIDAR verification runs.
type envViews struct {
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

// newEnv assembles an environment from its finished datasets, links the
// union to the active scan for its SNMPv3 groups, and sets the Censys
// non-standard-port exclusion on the Censys dataset and the union. Each
// dataset holds its own session, so the concurrent render paths keep the
// merge parallelism the per-dataset tables used to provide.
func newEnv(w *topo.World, active, censys, both *Dataset) *Env {
	both.snmp = active
	censys.NonStandardPortSSH = nonStandardPortSSH(censys)
	both.NonStandardPortSSH = censys.NonStandardPortSSH
	return &Env{World: w, Active: active, Censys: censys, Both: both}
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
// the union dataset's merged partition, whose SNMPv3 groups are the active
// scan's (its single source).
func (e *Env) UnionFamilyNonSingleton(v4 bool) []alias.Set {
	return e.Both.MergedFamilyNonSingleton(v4)
}

// DualStackMerged returns the all-family merge of every protocol's
// non-singleton identifier groups in the union dataset — the partition
// dual-stack analysis reads. It merges through the union's session, so it
// reuses the addresses the family unions interned. Singletons stay out: one
// adds no union edge, only a one-address component DualStack would drop, so
// DualStackSets is the same as merging every group.
func (e *Env) DualStackMerged() []alias.Set {
	return e.views.dualMerged.get(func() []alias.Set {
		return e.Both.views.session.Merged(e.Both.NonSingletonSets(ident.SSH),
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
