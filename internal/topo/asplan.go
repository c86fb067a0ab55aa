package topo

import (
	"fmt"
	"net/netip"

	"aliaslimit/internal/xrand"
)

// ASKind is the coarse business of an autonomous system; it decides which
// device populations are placed there, which in turn reproduces the paper's
// AS-level findings (SSH sets concentrate in clouds, BGP/SNMPv3 in ISPs).
type ASKind int

const (
	// KindCloud hosts virtual machines: SSH-heavy, alias-set-light.
	KindCloud ASKind = iota
	// KindISP operates access and backbone routers: SNMP- and BGP-heavy.
	KindISP
	// KindEnterprise has a few routers and little else.
	KindEnterprise
)

// String names the kind.
func (k ASKind) String() string {
	switch k {
	case KindCloud:
		return "cloud"
	case KindISP:
		return "isp"
	case KindEnterprise:
		return "enterprise"
	default:
		return "unknown"
	}
}

// AS is one autonomous system with its address allocators.
type AS struct {
	// ASN is the autonomous system number. The well-known contributors use
	// the real ASNs from the paper's Tables 5/6 so the regenerated tables
	// read like the originals.
	ASN uint32
	// Name is a display label.
	Name string
	// Kind selects device placement.
	Kind ASKind
	// Weight is the relative share of its kind's population this AS gets.
	Weight float64

	index  int
	nextV4 uint32
	nextV6 uint64
}

// asChunkBits is the size of each AS's private IPv4 allocation (2^18 hosts).
const asChunkBits = 18

// v4Base is where synthetic allocations start (1.0.0.0).
const v4Base = 1 << 24

// AllocV4 returns the AS's next IPv4 address.
func (a *AS) AllocV4() netip.Addr {
	u := uint32(v4Base) + uint32(a.index)<<asChunkBits + a.nextV4
	a.nextV4++
	if a.nextV4 >= 1<<asChunkBits {
		panic(fmt.Sprintf("topo: AS%d exhausted its IPv4 chunk", a.ASN))
	}
	return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
}

// AllocV6 returns the AS's next IPv6 address: 2a00:<asIndex>::<counter>.
func (a *AS) AllocV6() netip.Addr {
	a.nextV6++
	var b [16]byte
	b[0], b[1] = 0x2a, 0x00
	b[2], b[3] = byte(a.index>>8), byte(a.index)
	b[8] = byte(a.nextV6 >> 56)
	b[9] = byte(a.nextV6 >> 48)
	b[12] = byte(a.nextV6 >> 24)
	b[13] = byte(a.nextV6 >> 16)
	b[14] = byte(a.nextV6 >> 8)
	b[15] = byte(a.nextV6)
	return netip.AddrFrom16(b)
}

// cloudASNs are the paper's top cloud contributors (Table 5 SSH column and
// Table 6), heaviest first: DigitalOcean, Telefonica Argentina (an ISP that
// behaves cloud-like in the SSH table), Amazon, OVH, Hetzner, Amazon
// (14618), Contabo, Google Cloud (396982), Unified Layer, Linode, Vultr,
// Dreamhost.
var cloudASNs = []struct {
	asn    uint32
	name   string
	weight float64
}{
	{14061, "DigitalOcean", 14.0},
	{22927, "Telefonica-AR", 12.5},
	{16509, "Amazon-16509", 9.5},
	{16276, "OVH", 6.0},
	{24940, "Hetzner", 5.0},
	{14618, "Amazon-14618", 4.8},
	{45102, "Alibaba", 4.0},
	{396982, "GoogleCloud", 3.6},
	{46606, "UnifiedLayer", 3.2},
	{63949, "Linode", 3.0},
	{20473, "Vultr", 2.2},
	{26347, "Dreamhost", 1.6},
	{12876, "Scaleway", 1.4},
	{197695, "Reg.ru", 1.3},
	{8972, "Gd-EMEA", 1.1},
	{8560, "IONOS", 1.0},
	{51167, "Contabo", 1.0},
	{7506, "GMO", 0.9},
}

// ispASNs are the paper's ISP contributors (Tables 5/6): Telecom Italia,
// Vodafone Italy, Deutsche Telekom, China Telecom, ...
var ispASNs = []struct {
	asn    uint32
	name   string
	weight float64
}{
	{3269, "TelecomItalia", 10.0},
	{30722, "VodafoneIT", 6.5},
	{3320, "DeutscheTelekom", 5.5},
	{12874, "Fastweb", 5.2},
	{4134, "ChinaTelecom", 5.0},
	{8881, "Versatel", 4.2},
	{5089, "VirginMedia", 4.0},
	{3301, "TeliaSE", 3.7},
	{7018, "ATT", 3.6},
	{7029, "Windstream", 3.5},
	{21859, "Zenlayer", 3.0},
	{701, "Verizon", 2.8},
	{42689, "Glide", 2.3},
	{19429, "ETB", 2.1},
	{12389, "Rostelecom", 2.0},
	{852, "TELUS", 1.8},
	{17511, "OPTAGE", 1.7},
	{4837, "ChinaUnicom", 1.7},
	{6939, "HurricaneElectric", 1.6},
	{9808, "ChinaMobile", 1.5},
	{7922, "Comcast", 1.5},
	{7684, "SAKURA", 1.5},
	{197540, "Netcup", 1.2},
	{20857, "TransIP", 1.1},
}

// buildASes constructs the AS plan: the named heavy hitters plus a tail of
// smaller synthetic ASes per kind, Zipf-weighted so per-AS set counts spread
// the way Figure 6 shows.
func buildASes(cfg Config) []*AS {
	var ases []*AS
	add := func(asn uint32, name string, kind ASKind, weight float64) {
		ases = append(ases, &AS{ASN: asn, Name: name, Kind: kind, Weight: weight})
	}
	for _, c := range cloudASNs {
		add(c.asn, c.name, KindCloud, c.weight)
	}
	for _, c := range ispASNs {
		add(c.asn, c.name, KindISP, c.weight)
	}
	// Synthetic tails. ASNs are chosen in private/unallocated high ranges
	// to avoid colliding with the named ones.
	tail := func(kind ASKind, count int, base uint32, meanWeight float64) {
		for i := 0; i < count; i++ {
			w := meanWeight * float64(xrand.Zipf(1.4, 20, "as-weight", kind.String(), fmt.Sprint(i))) / 4
			add(base+uint32(i), fmt.Sprintf("%s-tail-%d", kind.String(), i), kind, w)
		}
	}
	tail(KindCloud, 18, 4200000000, 0.5)
	tail(KindISP, 60, 4200001000, 0.8)
	tail(KindEnterprise, 50, 4200002000, 0.5)
	for i, a := range ases {
		a.index = i
	}
	return ases
}

// pickAS selects an AS of the given kind, weight-proportionally, keyed by a
// stable label so device placement is deterministic.
func pickAS(ases []*AS, kind ASKind, keys ...string) *AS {
	var total float64
	for _, a := range ases {
		if a.Kind == kind {
			total += a.Weight
		}
	}
	x := xrand.Prob(keys...) * total
	for _, a := range ases {
		if a.Kind != kind {
			continue
		}
		x -= a.Weight
		if x <= 0 {
			return a
		}
	}
	// Rounding fell off the end: return the last matching AS.
	for i := len(ases) - 1; i >= 0; i-- {
		if ases[i].Kind == kind {
			return ases[i]
		}
	}
	panic("topo: no AS of kind " + kind.String())
}
