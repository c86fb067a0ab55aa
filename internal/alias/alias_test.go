package alias

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"aliaslimit/internal/ident"
	"aliaslimit/internal/xrand"
)

func a4(t testing.TB, s string) netip.Addr {
	t.Helper()
	return netip.MustParseAddr(s)
}

// fakeID builds a deterministic identifier for testing.
func fakeID(proto ident.Protocol, label string) ident.Identifier {
	return ident.Identifier{Proto: proto, Digest: label}
}

func obs(t testing.TB, addr string, proto ident.Protocol, label string) Observation {
	t.Helper()
	return Observation{Addr: netip.MustParseAddr(addr), ID: fakeID(proto, label)}
}

func TestNewSetSortsAndDedups(t *testing.T) {
	s := NewSet(
		a4(t, "10.0.0.3"), a4(t, "10.0.0.1"), a4(t, "10.0.0.3"), a4(t, "10.0.0.2"),
	)
	if s.Size() != 3 {
		t.Fatalf("size = %d, want 3", s.Size())
	}
	if s.Signature() != "10.0.0.1,10.0.0.2,10.0.0.3" {
		t.Errorf("signature = %q", s.Signature())
	}
}

func TestSetFamilies(t *testing.T) {
	s := NewSet(a4(t, "10.0.0.1"), a4(t, "2001:db8::1"), a4(t, "10.0.0.2"))
	if s.V4Count() != 2 || s.V6Count() != 1 {
		t.Errorf("v4=%d v6=%d", s.V4Count(), s.V6Count())
	}
	if !s.IsDualStack() {
		t.Error("IsDualStack = false")
	}
	if NewSet(a4(t, "10.0.0.1")).IsDualStack() {
		t.Error("single-family set claims dual-stack")
	}
}

func TestGroupByIdentifier(t *testing.T) {
	in := []Observation{
		obs(t, "10.0.0.1", ident.SSH, "A"),
		obs(t, "10.0.0.2", ident.SSH, "A"),
		obs(t, "10.0.0.3", ident.SSH, "B"),
		obs(t, "10.0.0.2", ident.SSH, "A"), // duplicate observation
		obs(t, "2001:db8::5", ident.SSH, "A"),
	}
	sets := Group(in)
	if len(sets) != 2 {
		t.Fatalf("groups = %d, want 2", len(sets))
	}
	var big Set
	for _, s := range sets {
		if s.Size() == 3 {
			big = s
		}
	}
	if big.Size() != 3 || !big.IsDualStack() {
		t.Errorf("identifier-A set wrong: %v", big)
	}

	ns := NonSingleton(sets)
	if len(ns) != 1 {
		t.Errorf("non-singleton = %d, want 1", len(ns))
	}
	ds := DualStack(sets)
	if len(ds) != 1 {
		t.Errorf("dual-stack = %d, want 1", len(ds))
	}
}

func TestGroupSeparatesProtocols(t *testing.T) {
	// Same digest under different protocols must not merge.
	in := []Observation{
		obs(t, "10.0.0.1", ident.SSH, "X"),
		obs(t, "10.0.0.2", ident.BGP, "X"),
	}
	if sets := Group(in); len(sets) != 2 {
		t.Errorf("protocol separation broken: %d sets", len(sets))
	}
}

func TestFilterFamily(t *testing.T) {
	sets := []Set{
		NewSet(a4(t, "10.0.0.1"), a4(t, "2001:db8::1")),
		NewSet(a4(t, "2001:db8::2")),
	}
	v4 := FilterFamily(sets, true)
	if len(v4) != 1 || v4[0].Size() != 1 || !v4[0].Addrs[0].Is4() {
		t.Errorf("v4 view wrong: %v", v4)
	}
	v6 := FilterFamily(sets, false)
	if len(v6) != 2 {
		t.Errorf("v6 view wrong: %v", v6)
	}
}

func TestMergeAcrossProtocols(t *testing.T) {
	ssh := []Set{
		NewSet(a4(t, "10.0.0.1"), a4(t, "10.0.0.2")),
		NewSet(a4(t, "10.0.0.9")),
	}
	snmp := []Set{
		NewSet(a4(t, "10.0.0.2"), a4(t, "10.0.0.3")),
		NewSet(a4(t, "10.0.0.7"), a4(t, "10.0.0.8")),
	}
	merged := Merge(ssh, snmp)
	// Expected components: {1,2,3}, {7,8}, {9}.
	if len(merged) != 3 {
		t.Fatalf("merged = %d sets: %v", len(merged), merged)
	}
	sigs := map[string]bool{}
	for _, s := range merged {
		sigs[s.Signature()] = true
	}
	for _, want := range []string{
		"10.0.0.1,10.0.0.2,10.0.0.3",
		"10.0.0.7,10.0.0.8",
		"10.0.0.9",
	} {
		if !sigs[want] {
			t.Errorf("missing component %q in %v", want, sigs)
		}
	}
	if got := CoveredAddrs(merged); got != 6 {
		t.Errorf("covered = %d, want 6", got)
	}
}

func TestMergeSingletonsDoNotGlue(t *testing.T) {
	// A singleton observation shared between protocols must not merge two
	// otherwise unrelated non-singleton sets.
	a := []Set{NewSet(a4(t, "10.0.0.1"), a4(t, "10.0.0.2"))}
	b := []Set{NewSet(a4(t, "10.0.0.3"), a4(t, "10.0.0.4"))}
	c := []Set{NewSet(a4(t, "10.0.0.5"))}
	merged := Merge(a, b, c)
	if len(merged) != 3 {
		t.Errorf("merged = %d sets, want 3", len(merged))
	}
}

func TestMergeIdempotentProperty(t *testing.T) {
	f := func(edges []uint8) bool {
		// Build random 2-address sets over a tiny universe, merge, merge
		// again: the partition must be stable (idempotence), and any two
		// addresses in one input set must land in one output set.
		var sets []Set
		for i := 0; i+1 < len(edges); i += 2 {
			x := netip.AddrFrom4([4]byte{10, 0, 0, edges[i]%32 + 1})
			y := netip.AddrFrom4([4]byte{10, 0, 0, edges[i+1]%32 + 1})
			sets = append(sets, NewSet(x, y))
		}
		once := Merge(sets)
		twice := Merge(once)
		if len(once) != len(twice) {
			return false
		}
		sig := map[string]bool{}
		for _, s := range once {
			sig[s.Signature()] = true
		}
		for _, s := range twice {
			if !sig[s.Signature()] {
				return false
			}
		}
		// Connectivity: each input pair must be in the same output set.
		inSame := func(x, y netip.Addr) bool {
			for _, s := range once {
				if slices.Contains(s.Addrs, x) && slices.Contains(s.Addrs, y) {
					return true
				}
			}
			return false
		}
		for _, s := range sets {
			if s.Size() == 2 && !inSame(s.Addrs[0], s.Addrs[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMergePartitionProperty(t *testing.T) {
	// The merged output must be a partition: no address in two sets, and
	// every input address present.
	f := func(edges []uint8) bool {
		var sets []Set
		for i := 0; i+1 < len(edges); i += 2 {
			x := netip.AddrFrom4([4]byte{10, 0, 0, edges[i]%64 + 1})
			y := netip.AddrFrom4([4]byte{10, 0, 0, edges[i+1]%64 + 1})
			sets = append(sets, NewSet(x, y))
		}
		in := AddrSet(sets)
		merged := Merge(sets)
		seen := map[netip.Addr]bool{}
		for _, s := range merged {
			for _, a := range s.Addrs {
				if seen[a] {
					return false // overlap
				}
				seen[a] = true
			}
		}
		return len(seen) == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRestrict(t *testing.T) {
	sets := []Set{
		NewSet(a4(t, "10.0.0.1"), a4(t, "10.0.0.2"), a4(t, "10.0.0.3")),
		NewSet(a4(t, "10.0.0.4"), a4(t, "10.0.0.5")),
	}
	keep := map[netip.Addr]bool{
		a4(t, "10.0.0.1"): true, a4(t, "10.0.0.2"): true, a4(t, "10.0.0.4"): true,
	}
	got := Restrict(sets, keep)
	if len(got) != 1 {
		t.Fatalf("restricted = %d sets, want 1 (the 4-5 set shrinks to a singleton)", len(got))
	}
	if got[0].Signature() != "10.0.0.1,10.0.0.2" {
		t.Errorf("restricted set = %q", got[0].Signature())
	}
}

// crossValidate is §2.6 as experiments.Env.ValidatePair runs it: restrict
// both partitions to the addresses both protocols answered on, then count
// exact-membership matches.
func crossValidate(aObs, bObs []Observation) (common int, aSets, bSets []Set, res ValidationResult) {
	inA := make(map[netip.Addr]bool, len(aObs))
	for _, o := range aObs {
		inA[o.Addr] = true
	}
	both := make(map[netip.Addr]bool)
	for _, o := range bObs {
		if inA[o.Addr] {
			both[o.Addr] = true
		}
	}
	aSets = Restrict(Group(aObs), both)
	bSets = Restrict(Group(bObs), both)
	return len(both), aSets, bSets, MatchSets(aSets, bSets)
}

func TestCrossValidatePerfectAgreement(t *testing.T) {
	// Two protocols observing identical device structure agree 100%.
	var aObs, bObs []Observation
	for dev := 0; dev < 10; dev++ {
		for ifc := 0; ifc < 3; ifc++ {
			addr := fmt.Sprintf("10.0.%d.%d", dev, ifc+1)
			aObs = append(aObs, obs(t, addr, ident.SSH, fmt.Sprintf("dev%d", dev)))
			bObs = append(bObs, obs(t, addr, ident.BGP, fmt.Sprintf("dev%d", dev)))
		}
	}
	_, aSets, bSets, res := crossValidate(aObs, bObs)
	if len(aSets) != 10 || len(bSets) != 10 {
		t.Fatalf("sets = %d/%d, want 10/10", len(aSets), len(bSets))
	}
	if res.Sample != 10 || res.Agree != 10 || res.Disagree != 0 {
		t.Errorf("validation = %+v", res)
	}
	if res.AgreementRate() != 1.0 {
		t.Errorf("rate = %f", res.AgreementRate())
	}
}

func TestCrossValidateDetectsSplit(t *testing.T) {
	// Protocol B splits device 0 into two sets; the A set for device 0
	// then has no exact match.
	var aObs, bObs []Observation
	for ifc := 0; ifc < 4; ifc++ {
		addr := fmt.Sprintf("10.0.0.%d", ifc+1)
		aObs = append(aObs, obs(t, addr, ident.SSH, "dev0"))
		bObs = append(bObs, obs(t, addr, ident.BGP, fmt.Sprintf("half%d", ifc/2)))
	}
	_, _, _, res := crossValidate(aObs, bObs)
	if res.Sample != 1 || res.Agree != 0 || res.Disagree != 1 {
		t.Errorf("validation = %+v", res)
	}
}

func TestCrossValidateRestrictsToCommon(t *testing.T) {
	// Addresses responsive to only one protocol must not count against
	// agreement.
	aObs := []Observation{
		obs(t, "10.0.0.1", ident.SSH, "d0"),
		obs(t, "10.0.0.2", ident.SSH, "d0"),
		obs(t, "10.0.0.3", ident.SSH, "d0"), // SSH-only address
	}
	bObs := []Observation{
		obs(t, "10.0.0.1", ident.BGP, "d0"),
		obs(t, "10.0.0.2", ident.BGP, "d0"),
		obs(t, "10.0.0.9", ident.BGP, "d9"), // BGP-only address
	}
	common, _, _, res := crossValidate(aObs, bObs)
	if common != 2 {
		t.Errorf("common = %d, want 2", common)
	}
	if res.Sample != 1 || res.Agree != 1 {
		t.Errorf("validation = %+v, want perfect agreement over the common pair", res)
	}
}

func TestMatchSetsEmpty(t *testing.T) {
	res := MatchSets(nil, nil)
	if res.Sample != 0 || res.AgreementRate() != 0 {
		t.Errorf("empty = %+v", res)
	}
}

func TestDSUInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		const n = 24
		d := newDSU(n)
		for i := 0; i+1 < len(ops); i += 2 {
			d.union(int32(ops[i]%n), int32(ops[i+1]%n))
		}
		// find is idempotent.
		for i := int32(0); i < n; i++ {
			r := d.find(i)
			if d.find(r) != r {
				return false
			}
		}
		// union transitivity spot-check: united elements share a root.
		for i := 0; i+1 < len(ops); i += 2 {
			if d.find(int32(ops[i]%n)) != d.find(int32(ops[i+1]%n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomPartitions draws three partitions of random sets over a small shared
// address pool — so sets overlap within and across partitions — with
// singletons, both families, and an IPv4-mapped IPv6 twin of a pool address
// (IPv6 by family, distinct from its IPv4 form).
func randomPartitions(seed uint64) [][]Set {
	rng := xrand.NewSplitMix64(seed)
	pool := []netip.Addr{netip.MustParseAddr("::ffff:10.0.0.1")}
	for i := 1; i <= 12; i++ {
		pool = append(pool, netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
			netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)}))
	}
	parts := make([][]Set, 3)
	for p := range parts {
		for n := rng.Intn(8); n >= 0; n-- {
			addrs := make([]netip.Addr, 1+rng.Intn(3))
			for i := range addrs {
				addrs[i] = pool[rng.Intn(len(pool))]
			}
			parts[p] = append(parts[p], NewSet(addrs...))
		}
		sortSets(parts[p])
	}
	return parts
}

// TestSingletonIdentities pins the identities that let the scored
// partitions be derived from non-singleton sets alone: dropping singletons
// first changes neither "family filter, then NonSingleton" nor "merge, then
// DualStack", and a merge of non-singleton sets holds only non-singleton
// sets, so NonSingleton after such a merge is the identity.
func TestSingletonIdentities(t *testing.T) {
	var withSingletons, withDual int
	for seed := uint64(1); seed <= 500; seed++ {
		parts := randomPartitions(seed)
		ns := make([][]Set, len(parts))
		var famNS [2][][]Set
		for i, p := range parts {
			ns[i] = NonSingleton(p)
			if len(ns[i]) < len(p) {
				withSingletons++
			}
			for fi, v4 := range []bool{true, false} {
				sameSets(t, NonSingleton(FilterFamily(p, v4)), NonSingleton(FilterFamily(ns[i], v4)),
					fmt.Sprintf("seed %d partition %d v4=%v: FilterFamily", seed, i, v4))
				famNS[fi] = append(famNS[fi], NonSingleton(FilterFamily(p, v4)))
			}
		}
		dual := DualStack(Merge(parts...))
		if len(dual) > 0 {
			withDual++
		}
		sameSets(t, dual, DualStack(Merge(ns...)), fmt.Sprintf("seed %d: DualStack(Merge)", seed))
		for _, in := range append(famNS[:], ns) {
			merged := Merge(in...)
			sameSets(t, NonSingleton(merged), merged, fmt.Sprintf("seed %d: NonSingleton(Merge)", seed))
		}
	}
	// The generator must exercise both sides of each identity.
	if withSingletons < 1000 || withDual < 400 {
		t.Fatalf("degenerate corpus: %d partitions with singletons, %d seeds with dual-stack sets",
			withSingletons, withDual)
	}
}

// naiveMerge is the reference TestMergeMatchesNaiveReference holds MergeWith
// to, written without union-find or interning: pool every input set, then
// union any two pooled sets that share an address until no two do.
func naiveMerge(groups ...[]Set) []Set {
	var pool [][]netip.Addr
	for _, sets := range groups {
		for _, s := range sets {
			pool = append(pool, slices.Clone(s.Addrs))
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(pool) && !changed; i++ {
			for j := i + 1; j < len(pool); j++ {
				if slices.ContainsFunc(pool[j], func(a netip.Addr) bool { return slices.Contains(pool[i], a) }) {
					pool[i] = append(pool[i], pool[j]...)
					pool = slices.Delete(pool, j, j+1)
					changed = true
					break
				}
			}
		}
	}
	out := make([]Set, len(pool))
	for i, addrs := range pool {
		out[i] = NewSet(addrs...)
	}
	sortSets(out)
	return out
}

// TestMergeMatchesNaiveReference: over random overlapping partitions,
// MergeWith through one interning table reused across every call equals the
// naive fixpoint merge, for all three partitions together and each alone —
// so a kernel that over-merges or under-merges fails here, not only on the
// hand-written cases.
func TestMergeMatchesNaiveReference(t *testing.T) {
	table := NewAddrTable()
	merged := 0
	for seed := uint64(1); seed <= 500; seed++ {
		parts := randomPartitions(seed)
		want := naiveMerge(parts...)
		got := MergeWith(table, parts...)
		sameSets(t, want, got, fmt.Sprintf("seed %d: all partitions", seed))
		if len(got) < len(parts[0])+len(parts[1])+len(parts[2]) {
			merged++
		}
		for i, p := range parts {
			sameSets(t, naiveMerge(p), MergeWith(table, p), fmt.Sprintf("seed %d: partition %d", seed, i))
		}
	}
	if merged < 400 {
		t.Fatalf("degenerate corpus: only %d of 500 seeds merged any sets", merged)
	}
}
