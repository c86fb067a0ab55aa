package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/scenario"
)

// tally counts attempted and failed operations. A failed operation is a Go
// error, a digest mismatch or a non-2xx response; none is dropped silently.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// ok records one operation that succeeded.
func (t *tally) ok() { t.add(nil) }

// fail records one failed operation and why.
func (t *tally) fail(format string, args ...any) {
	err := fmt.Errorf(format, args...)
	t.add(err)
}

// add records one operation, failed when err is non-nil.
func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
}

// expect records a digest check.
func (t *tally) expect(what, got, want string) {
	if got == want {
		t.ok()
		return
	}
	t.fail("%s: sets_digest %.16s, want %.16s", what, got, want)
}

// partitionReads reads an environment's scored partitions view by view, each
// in its own span, in the order scenario.ScoredPartitions lists them: the
// three per-protocol groups, the union (both families) and the dual-stack
// sets. The first read of a view is where the resolver groups or merges.
// Reading them all is one query sample, the same work as one daemon view
// recompute, which derives every scored partition of its session. A
// collection of what came before goes first, in a span of its own and
// outside the sample, so the sample times the resolver rather than whichever
// garbage collection happens to overlap it.
func partitionReads(sc scope, env *experiments.Env, lat *book) {
	sc.do("runtime.gc", freeMemory)
	start := time.Now()
	read := func(name string, f func() int) {
		id := sc.begin(name)
		n := f()
		sc.end(id)
		sc.count(id, "sets", float64(n))
	}
	group := func(ds *experiments.Dataset, p ident.Protocol) func() int {
		return func() int { return len(ds.NonSingletonSets(p)) }
	}
	read("resolver.group.ssh", group(env.Both, ident.SSH))
	read("resolver.group.bgp", group(env.Both, ident.BGP))
	read("resolver.group.snmpv3", group(env.Active, ident.SNMP))
	read("resolver.merge.union", func() int {
		return len(env.UnionFamilyNonSingleton(true)) + len(env.UnionFamilyNonSingleton(false))
	})
	read("resolver.merge.dualstack", func() int { return len(env.DualStackSets()) })
	if lat != nil {
		lat.add("query", start, time.Since(start))
	}
}

// digestEnv hashes an environment's scored partitions in a scenario.digest
// span.
func digestEnv(sc scope, env *experiments.Env) string {
	var d string
	var parts []scenario.Partition
	id := sc.do("scenario.digest", func() {
		parts = scenario.ScoredPartitions(env)
		d, _ = scenario.DigestPartitions(parts)
	})
	n := 0
	for _, p := range parts {
		n += len(p.Sets)
	}
	sc.count(id, "sets", float64(n))
	return d
}

// streamDigest resolves observations through a fresh streaming session — a
// second resolver backend, independent of the batch one the workloads run —
// and digests the scored partitions exactly as the daemon does for an ingest
// session: per-protocol non-singleton groups, per-family unions and the
// dual-stack sets. feed must deliver the SSH and BGP observations of both
// campaigns and the SNMPv3 observations of the active one.
func streamDigest(sc scope, feed func(observe func(alias.Observation)) error) (string, error) {
	ses, err := resolver.NewStreaming().Open(resolver.Options{})
	if err != nil {
		return "", err
	}
	defer ses.Close()
	n := 0
	var ferr error
	id := sc.do("resolver.observe", func() {
		ferr = feed(func(o alias.Observation) {
			ses.Observe(o)
			n++
		})
	})
	sc.count(id, "obs", float64(n))
	if ferr != nil {
		return "", ferr
	}
	var parts []scenario.Partition
	id = sc.do("resolver.views", func() { parts = livePartitions(ses) })
	sets := 0
	for _, p := range parts {
		sets += len(p.Sets)
	}
	sc.count(id, "sets", float64(sets))
	var d string
	id = sc.do("scenario.digest", func() { d, _ = scenario.DigestPartitions(parts) })
	sc.count(id, "sets", float64(sets))
	return d, nil
}

// livePartitions derives the scored partitions from an open resolver
// session, partition for partition as scenario.ScoredPartitions does for a
// sealed environment.
func livePartitions(ses resolver.Session) []scenario.Partition {
	order := []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP}
	sets := make(map[ident.Protocol][]alias.Set, len(order))
	var parts []scenario.Partition
	for _, p := range order {
		sets[p] = ses.Sets(p)
		parts = append(parts, scenario.Partition{Name: strings.ToLower(p.String()), Sets: alias.NonSingleton(sets[p])})
	}
	for _, v4 := range []bool{true, false} {
		name := "union-v4"
		if !v4 {
			name = "union-v6"
		}
		merged := ses.Merged(
			alias.NonSingleton(alias.FilterFamily(sets[ident.SSH], v4)),
			alias.NonSingleton(alias.FilterFamily(sets[ident.BGP], v4)),
			alias.NonSingleton(alias.FilterFamily(sets[ident.SNMP], v4)),
		)
		parts = append(parts, scenario.Partition{Name: name, Sets: alias.NonSingleton(merged)})
	}
	dual := ses.Merged(sets[ident.SSH], sets[ident.BGP], sets[ident.SNMP])
	return append(parts, scenario.Partition{Name: "dualstack", Sets: alias.DualStack(dual)})
}

// feedEnv delivers an environment's scored observations: SSH and BGP from
// the union dataset, SNMPv3 from the active scan.
func feedEnv(env *experiments.Env) func(observe func(alias.Observation)) error {
	return func(observe func(alias.Observation)) error {
		for _, p := range ident.Protocols {
			ds := env.Both
			if p == ident.SNMP {
				ds = env.Active
			}
			if err := ds.EachObs(p, observe); err != nil {
				return err
			}
		}
		return nil
	}
}
