package alias

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"aliaslimit/internal/ident"
)

// referenceGroup is the straightforward map-of-slices grouping the interned
// implementation must match exactly.
func referenceGroup(obs []Observation) []Set {
	byID := make(map[string][]netip.Addr)
	for _, o := range obs {
		k := o.ID.Key()
		byID[k] = append(byID[k], o.Addr)
	}
	sets := make([]Set, 0, len(byID))
	for _, addrs := range byID {
		sets = append(sets, NewSet(addrs...))
	}
	sortSets(sets)
	return sets
}

// synthObs builds a deterministic mixed observation list with duplicates,
// shared identifiers, and both families.
func synthObs(n int) []Observation {
	var obs []Observation
	for i := 0; i < n; i++ {
		id := ident.Identifier{Proto: ident.SSH, Digest: fmt.Sprintf("d%d", i%17)}
		v4 := netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
		obs = append(obs, Observation{Addr: v4, ID: id})
		if i%3 == 0 {
			obs = append(obs, Observation{Addr: v4, ID: id}) // duplicate
		}
		if i%5 == 0 {
			v6 := netip.AddrFrom16([16]byte{0x2a, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, byte(i), 7})
			obs = append(obs, Observation{Addr: v6, ID: id})
		}
	}
	return obs
}

func TestGroupMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300} {
		obs := synthObs(n)
		got := Group(obs)
		want := referenceGroup(obs)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d sets, want %d", n, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Addrs, want[i].Addrs) {
				t.Fatalf("n=%d set %d: %v != %v", n, i, got[i].Addrs, want[i].Addrs)
			}
		}
	}
}

func TestSetKey(t *testing.T) {
	a := netip.MustParseAddr("1.2.3.4")
	mapped := netip.MustParseAddr("::ffff:1.2.3.4")
	if NewSet(a).Key() == NewSet(mapped).Key() {
		t.Error("IPv4 and IPv4-mapped IPv6 sets must have distinct keys")
	}
	s1 := NewSet(a, netip.MustParseAddr("2.3.4.5"))
	s2 := NewSet(netip.MustParseAddr("2.3.4.5"), a)
	if s1.Key() != s2.Key() {
		t.Error("same membership must give the same key regardless of input order")
	}
	if s1.Key() == NewSet(a).Key() {
		t.Error("different membership must give different keys")
	}
	// Key-based matching agrees with Signature-based equality.
	if (s1.Signature() == s2.Signature()) != (s1.Key() == s2.Key()) {
		t.Error("Key equality diverges from Signature equality")
	}
}

func TestMergeWithReusedTable(t *testing.T) {
	mk := func(addrs ...string) Set {
		var as []netip.Addr
		for _, a := range addrs {
			as = append(as, netip.MustParseAddr(a))
		}
		return NewSet(as...)
	}
	g1 := []Set{mk("1.0.0.1", "1.0.0.2"), mk("1.0.0.9")}
	g2 := []Set{mk("1.0.0.2", "1.0.0.3"), mk("2.0.0.1", "2.0.0.2")}
	g3 := []Set{mk("2.0.0.2", "1.0.0.9"), mk("3.0.0.1")}

	table := NewAddrTable()
	// Three successive merges over overlapping populations through one
	// table must each equal the fresh-table Merge.
	for i, groups := range [][][]Set{{g1, g2}, {g2, g3}, {g1, g2, g3}} {
		got := MergeWith(table, groups...)
		want := Merge(groups...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merge %d: reused table gave %v, fresh table %v", i, got, want)
		}
	}
	if n := len(table.addrs); n != 7 {
		t.Errorf("table interned %d addrs, want 7", n)
	}
}

func TestMergeIncludesSingletonsAndPartitions(t *testing.T) {
	mk := func(addrs ...string) Set {
		var as []netip.Addr
		for _, a := range addrs {
			as = append(as, netip.MustParseAddr(a))
		}
		return NewSet(as...)
	}
	out := Merge(
		[]Set{mk("1.0.0.1", "1.0.0.2"), mk("1.0.0.7")},
		[]Set{mk("1.0.0.2", "1.0.0.3")},
	)
	var sigs []string
	for _, s := range out {
		sigs = append(sigs, s.Signature())
	}
	sort.Strings(sigs)
	want := []string{"1.0.0.1,1.0.0.2,1.0.0.3", "1.0.0.7"}
	if !reflect.DeepEqual(sigs, want) {
		t.Fatalf("merge partition %v, want %v", sigs, want)
	}
}
