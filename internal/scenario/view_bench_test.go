package scenario

import (
	"fmt"
	"net/netip"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/xrand"
)

// daemonShapedCorpus draws observations shaped like the daemon benchmark's
// corpus (a scale-0.1 world), in shuffled order as its clients ingest them.
// Nine devices in ten have one address; the rest have two or more, five on
// average, and one address in twenty is IPv6. SSH identifies three devices
// in five and SNMPv3 one in two, so most of their identifiers sit at one
// address; BGP identifies one multi-address device in ten. Each identifier
// is seen at about four in five of its device's addresses, so the unions
// merge partial sets.
func daemonShapedCorpus(seed uint64, devices int) []alias.Observation {
	rng := xrand.NewSplitMix64(seed)
	share := [3]int{ident.SSH: 60, ident.BGP: 10, ident.SNMP: 50} // percent of devices
	var obs []alias.Observation
	v4, v6 := 0, 0
	for d := 0; d < devices; d++ {
		n := 1
		if rng.Intn(10) == 0 {
			n = 2
			for n < 160 && rng.Intn(4) != 0 {
				n++
			}
		}
		addrs := make([]netip.Addr, n)
		for i := range addrs {
			if rng.Intn(20) == 0 {
				v6++
				addrs[i] = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 13: byte(v6 >> 16), 14: byte(v6 >> 8), 15: byte(v6)})
			} else {
				v4++
				addrs[i] = netip.AddrFrom4([4]byte{10, byte(v4 >> 16), byte(v4 >> 8), byte(v4)})
			}
		}
		for _, p := range ident.Protocols {
			if (p == ident.BGP && n == 1) || rng.Intn(100) >= share[p] {
				continue
			}
			id := ident.Identifier{Proto: p, Digest: fmt.Sprintf("%s-%d", p, d)}
			for _, a := range addrs {
				if rng.Intn(5) != 0 {
					obs = append(obs, alias.Observation{Addr: a, ID: id})
				}
			}
		}
	}
	for i, j := range rng.Perm(len(obs)) {
		obs[i], obs[j] = obs[j], obs[i]
	}
	return obs
}

// BenchmarkSessionView prices one daemon view read: each op opens a fresh
// SessionView over a session holding a daemon-shaped corpus and derives one
// partition, with the snapshots and the merge it reads.
func BenchmarkSessionView(b *testing.B) {
	s := resolver.NewSession()
	for _, o := range daemonShapedCorpus(1, 4000) {
		s.Observe(o)
	}
	for _, name := range PartitionNames {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sets []alias.Set
			for i := 0; i < b.N; i++ {
				sets, _ = NewSessionView(s).Partition(name)
			}
			b.ReportMetric(float64(len(sets)), "sets")
		})
	}
}
