package topo

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"time"

	"aliaslimit/internal/bgp"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/snmpv3"
	"aliaslimit/internal/sshwire"
	"aliaslimit/internal/xrand"
)

// simHandshakeTimeout bounds a simulated SSH server's handshake. A real
// daemon's few-second deadline defends against stalled peers; on the fabric
// every client drives the exchange promptly or closes, so the deadline is
// purely an anti-hang backstop. It sits far above plausible goroutine
// starvation: a direct caller of zgrab and zmaplite may run wide pools (the
// benchmark's probe runs 256 workers per pool), -race slows every handshake
// several-fold, and the default 5 s could then expire on a starved but
// healthy handshake and nondeterministically lose an observation.
const simHandshakeTimeout = 2 * time.Minute

// seedReader adapts a SplitMix64 stream to io.Reader so host keys are
// deterministic functions of device identity.
type seedReader struct{ s *xrand.SplitMix64 }

// Read implements io.Reader with pseudo-random bytes.
func (r seedReader) Read(p []byte) (int, error) {
	var buf [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(buf[:], r.s.Uint64())
		copy(p[i:], buf[:])
	}
	return len(p), nil
}

// newSeedReader builds a reader keyed by labels (and the world seed).
func (g *generator) newSeedReader(labels ...string) io.Reader {
	key := append([]string{fmt.Sprint(g.cfg.Seed)}, labels...)
	return seedReader{s: xrand.NewSplitMix64(xrand.Hash64(key...))}
}

// generator carries the in-progress build. The fleets map and the overlap /
// router-ID registries are planning-phase state: they are resolved
// sequentially in canonical device order (see plan.go) because later devices
// clone earlier personalities.
type generator struct {
	w      *World
	cfg    Config
	fleets map[string]*sshPersona
	bgpIDs []uint32
	// overlapSSH registers the SSH personalities of multi-service routers
	// so later routers can clone them (PCloneSSHKeyOverlap).
	overlapSSH []*sshPersona
	// plans accumulates the device plans in canonical order.
	plans []*devicePlan
}

// sk returns a per-entity probability key incorporating the world seed.
func (g *generator) sk(labels ...string) []string {
	return append([]string{fmt.Sprint(g.cfg.Seed)}, labels...)
}

func (g *generator) prob(labels ...string) float64 { return xrand.Prob(g.sk(labels...)...) }
func (g *generator) intn(n int, labels ...string) int {
	return xrand.Intn(n, g.sk(labels...)...)
}

// hostKey derives an ed25519 host key for a label.
func (g *generator) hostKey(label string) ed25519.PrivateKey {
	_, priv, err := sshwire.GenerateEd25519(g.newSeedReader("hostkey", label))
	if err != nil {
		panic("topo: deterministic keygen cannot fail: " + err.Error())
	}
	return priv
}

// serverProfiles / routerProfiles weight the SSH software mix per device
// class.
var serverProfiles = []struct {
	name string
	w    float64
}{
	{"openssh-9.2-debian", 0.38}, {"openssh-8.9-ubuntu", 0.30},
	{"openssh-7.4-centos", 0.17}, {"dropbear-2022", 0.15},
}

var routerProfiles = []struct {
	name string
	w    float64
}{
	{"cisco-ios-xe", 0.40}, {"mikrotik-routeros", 0.25},
	{"juniper-junos", 0.20}, {"dropbear-2022", 0.15},
}

// pickProfile draws a weighted profile.
func (g *generator) pickProfile(router bool, labels ...string) *sshwire.Profile {
	pool := serverProfiles
	if router {
		pool = routerProfiles
	}
	x := g.prob(append(labels, "profile")...)
	for _, p := range pool {
		x -= p.w
		if x <= 0 {
			return sshwire.ProfileByName(p.name)
		}
	}
	return sshwire.ProfileByName(pool[len(pool)-1].name)
}

// ipidChoice assigns an IPID temperament.
type ipidChoice struct {
	model    netsim.IPIDModel
	velocity float64
	pingable bool
}

// ipidForServer: cloud VMs mostly use per-connection random or constant
// IPIDs; a minority keep a slow shared counter.
func (g *generator) ipidForServer(id string) ipidChoice {
	r := g.prob(id, "ipid")
	c := ipidChoice{pingable: g.prob(id, "ping") < 0.75}
	switch {
	case r < 0.50:
		c.model = netsim.IPIDRandom
	case r < 0.80:
		c.model = netsim.IPIDZero
	case r < 0.998:
		c.model = netsim.IPIDSharedMonotonic
		c.velocity = xrand.Exp(40, g.sk(id, "vel")...)
	default:
		c.model = netsim.IPIDPerInterface
	}
	return c
}

// ipidForRouter: network devices keep shared counters more often, but many
// are per-interface, random, or simply too busy — which is why MIDAR can
// verify only a small slice of the paper's sample.
func (g *generator) ipidForRouter(id string) ipidChoice {
	r := g.prob(id, "ipid")
	c := ipidChoice{pingable: g.prob(id, "ping") < 0.90}
	switch {
	case r < 0.30:
		c.model = netsim.IPIDSharedMonotonic
		c.velocity = xrand.Exp(60, g.sk(id, "vel")...)
	case r < 0.60:
		c.model = netsim.IPIDPerInterface
	case r < 0.80:
		c.model = netsim.IPIDRandom
	case r < 0.90:
		c.model = netsim.IPIDZero
	default:
		c.model = netsim.IPIDHighVelocity
		c.velocity = 30000 + xrand.Exp(100000, g.sk(id, "vel")...)
	}
	return c
}

// filteredVantages rolls the IDS/coverage dice for a device: the primary
// active/censys pair, plus the auxiliary geographic vantage labels vp0..vpN
// used by the multi-vantage extension experiment (each draws the same
// filtering probability independently, modelling location-dependent
// reachability à la Wan et al., IMC '20).
func (g *generator) filteredVantages(id string, pActive, pCensys float64) []string {
	var out []string
	if g.prob(id, "flt-active") < pActive {
		out = append(out, VantageActive)
	} else if g.prob(id, "flt-censys") < pCensys {
		out = append(out, VantageCensys)
	}
	for i := 0; i < AuxVantages; i++ {
		if g.prob(id, "flt-vp", fmt.Sprint(i)) < pActive {
			out = append(out, AuxVantage(i))
		}
	}
	return out
}

// run generates every population: plan sequentially, build in parallel,
// commit sequentially (see plan.go for the phase contract).
func (g *generator) run() error {
	g.planSingleSSHServers()
	g.planMultiSSHHosts()
	g.planSNMPSingles()
	g.planSNMPRouters()
	g.planBGPPopulations()
	g.decoys()
	if err := g.buildDevices(); err != nil {
		return err
	}
	return g.commit()
}

// planSSH resolves the SSH personality for a device, honouring fleets and
// per-interface capability variation. Key generation is deferred to the
// build phase; the persona records the derivation label.
func (g *generator) planSSH(id string, router bool, addrs []netip.Addr) *sshPlan {
	var persona *sshPersona
	asn := g.w.AddrASN[addrs[0]]
	if g.prob(id, "fleet") < g.cfg.PSharedSSHKey {
		slot := g.intn(2, id, "fleet-slot")
		label := fmt.Sprintf("fleet-%d-%d", asn, slot)
		fl := g.fleets[label]
		if fl == nil {
			fl = &sshPersona{
				label:    label,
				keyLabel: label,
				profile:  g.pickProfile(router, label),
			}
			g.fleets[label] = fl
		}
		persona = fl
		g.w.Truth.Fleets[label] = append(g.w.Truth.Fleets[label], id)
	} else {
		persona = &sshPersona{label: id, keyLabel: id, profile: g.pickProfile(router, id)}
	}
	sp := &sshPlan{persona: persona}
	if len(addrs) >= 2 && g.prob(id, "iface-var") < g.cfg.PSSHPerIfaceVariation {
		sp.varied = true
		sp.variedAddr = addrs[0]
	}
	return sp
}

// planSSHOverlap resolves the SSH personality of a multi-service router:
// with probability PCloneSSHKeyOverlap it clones the key and software of a
// previously planned multi-service router (cloned management configs),
// which makes the SSH technique merge two distinct devices — the
// disagreement the paper's Table 2 counts.
func (g *generator) planSSHOverlap(id string) *sshPlan {
	var persona *sshPersona
	if len(g.overlapSSH) > 0 && g.prob(id, "clone-ssh") < g.cfg.PCloneSSHKeyOverlap {
		persona = g.overlapSSH[g.intn(len(g.overlapSSH), id, "clone-pick")]
	} else {
		persona = &sshPersona{
			label:    "overlap-" + id,
			keyLabel: id,
			profile:  g.pickProfile(true, id),
		}
		g.overlapSSH = append(g.overlapSSH, persona)
	}
	g.w.Truth.Fleets[persona.label] = append(g.w.Truth.Fleets[persona.label], id)
	return &sshPlan{persona: persona}
}

// assignPTRNames populates the world's reverse zone for a device: partial
// coverage, structured names on routers, hostnames or generic templates on
// servers, and the occasional shared service name — the raw material (and
// the noise) of the DNS-based inference baseline.
func (g *generator) assignPTRNames(d *netsim.Device, kind netsim.DeviceKind, as *AS) {
	id := d.ID()
	// A sliver of addresses point at a shared service name: classic false
	// pairs for name-based techniques.
	if g.prob(id, "ptr-cdn") < 0.005 {
		for _, a := range d.Addrs() {
			g.w.PTR[a] = "www.shared-cdn.example.net"
		}
		return
	}
	serverHostname := g.prob(id, "ptr-hostname") < 0.45
	v4i, v6i := 0, 0
	for _, a := range d.Addrs() {
		coverage := 0.60
		if a.Is6() {
			coverage = 0.35
		}
		if g.prob(id, "ptr-cov", a.String()) >= coverage {
			continue
		}
		switch {
		case kind == netsim.KindRouter:
			// Interface-structured router names; the same interface index
			// in each family maps to one name, which is what makes PTR
			// pairing work on deliberately named routers.
			idx := v4i
			if a.Is6() {
				idx = v6i
			}
			g.w.PTR[a] = fmt.Sprintf("ge-0-0-%d.%s.as%d.example.net", idx, id, as.ASN)
		case serverHostname:
			g.w.PTR[a] = fmt.Sprintf("%s.as%d.example.net", id, as.ASN)
		default:
			g.w.PTR[a] = fmt.Sprintf("host-%s.dynamic.as%d.example.net",
				strings.NewReplacer(".", "-", ":", "-").Replace(a.String()), as.ASN)
		}
		if a.Is4() {
			v4i++
		} else {
			v6i++
		}
	}
}

// --- populations ---

// planSingleSSHServers: the dominant SSH population — one v4 address
// (sometimes dual-stack, sometimes v6-only), one unique host key, no
// aliases.
func (g *generator) planSingleSSHServers() {
	n := g.cfg.scaled(g.cfg.SingleSSHServers, 10)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("srv-%d", i)
		as := pickAS(g.w.ASes, KindCloud, g.sk(id, "as")...)
		var addrs []netip.Addr
		v6only := g.prob(id, "v6only") < g.cfg.PServerV6Only
		if !v6only {
			addrs = append(addrs, as.AllocV4())
		}
		if v6only || g.prob(id, "v6") < g.cfg.PServerV6 {
			addrs = append(addrs, as.AllocV6())
		}
		p := g.planDevice(id, netsim.KindServer, addrs, nil,
			g.ipidForServer(id),
			g.filteredVantages(id, g.cfg.PCloudFiltersActive, g.cfg.PCloudMissedByCensys), as)
		if g.prob(id, "broken") < g.cfg.PBrokenSSH {
			p.brokenSSH = true
		} else {
			p.ssh = g.planSSH(id, false, addrs)
			p.churnable = !v6only && len(addrs) == 1
		}
	}
}

// replacementServer stands up a fresh single server on a churned address.
func (g *generator) replacementServer(id string, addr netip.Addr) error {
	as := g.w.ASByNumber(g.w.AddrASN[addr])
	if as == nil {
		as = g.w.ASes[0]
	}
	d, err := netsim.NewDevice(netsim.DeviceConfig{
		ID: id, ASN: as.ASN, Kind: netsim.KindServer, Addrs: []netip.Addr{addr},
		IPID: netsim.IPIDRandom, IPIDSeed: xrand.Hash64(g.sk(id)...),
		FilteredVantages: g.filteredVantages(id, g.cfg.PCloudFiltersActive, 0),
	}, g.w.Clock.Now())
	if err != nil {
		return err
	}
	if err := g.w.Fabric.AddDevice(d); err != nil {
		return err
	}
	sp := g.planSSH(id, false, []netip.Addr{addr})
	d.SetService(22, g.buildSSHServer(sp, g.hostKey(sp.persona.keyLabel)))
	g.w.Truth.SSHAddrs[d.ID()] = d.ServiceAddrs(22)
	g.w.registerTruthDevice(d.ID())
	return nil
}

// multiSSHSize draws the v4 alias-set size for a multi-address SSH host:
// >60% have exactly two addresses (the paper's Figure 3), with a heavy tail.
func (g *generator) multiSSHSize(id string) int {
	r := g.prob(id, "size")
	switch {
	case r < 0.63:
		return 2
	case r < 0.89:
		return 3 + g.intn(7, id, "size-mid")
	case r < 0.99:
		return 10 + xrand.Zipf(1.5, 89, g.sk(id, "size-hi")...)
	default:
		return 100 + xrand.Zipf(1.3, 300, g.sk(id, "size-xl")...)
	}
}

// planMultiSSHHosts: hosts with several SSH-responsive addresses — the
// source of every SSH alias set.
func (g *generator) planMultiSSHHosts() {
	n := g.cfg.scaled(g.cfg.MultiSSHHosts, 4)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("mssh-%d", i)
		kind := KindCloud
		if g.prob(id, "as-kind") < 0.30 {
			kind = KindISP
		}
		as := pickAS(g.w.ASes, kind, g.sk(id, "as")...)
		k := g.multiSSHSize(id)
		// A minority of multi-address hosts span two ASes of the same
		// organisation (Amazon's 16509/14618 split, fleet anycast): the
		// reason a few percent of SSH alias sets cross AS boundaries in
		// the paper's Figure 5.
		var secondAS *AS
		if g.prob(id, "second-as") < 0.07 {
			secondAS = pickAS(g.w.ASes, kind, g.sk(id, "as2")...)
		}
		var addrs []netip.Addr
		addrASN := make(map[netip.Addr]uint32)
		for j := 0; j < k; j++ {
			if secondAS != nil && j%3 == 2 {
				a := secondAS.AllocV4()
				addrs = append(addrs, a)
				addrASN[a] = secondAS.ASN
				continue
			}
			addrs = append(addrs, as.AllocV4())
		}
		switch rv6 := g.prob(id, "v6"); {
		case rv6 < g.cfg.PMultiSSHManyV6:
			for j := 0; j < 2+g.intn(9, id, "v6n"); j++ {
				addrs = append(addrs, as.AllocV6())
			}
		case rv6 < g.cfg.PMultiSSHManyV6+g.cfg.PMultiSSHOneV6:
			addrs = append(addrs, as.AllocV6())
		}
		p := g.planDevice(id, netsim.KindServer, addrs, addrASN,
			g.ipidForServer(id),
			g.filteredVantages(id, g.cfg.PCloudFiltersActive, g.cfg.PCloudMissedByCensys), as)
		p.ssh = g.planSSH(id, false, addrs)
		if g.prob(id, "acl") < g.cfg.PSSHAcl && len(addrs) >= 3 {
			p.ssh.acl = addrs[:len(addrs)*2/3]
		}
	}
}

// planSNMPSingles: CPE-class devices with one SNMPv3-responsive address,
// plus the IPv6-only singles population.
func (g *generator) planSNMPSingles() {
	n := g.cfg.scaled(g.cfg.SNMPSingleDevices, 10)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("cpe-%d", i)
		as := pickAS(g.w.ASes, KindISP, g.sk(id, "as")...)
		addrs := []netip.Addr{as.AllocV4()}
		p := g.planDevice(id, netsim.KindRouter, addrs, nil, g.ipidForRouter(id), nil, as)
		p.snmp = &snmpPlan{cfg: g.planAgent(id)}
	}
	n6 := g.cfg.scaled(g.cfg.SNMPV6OnlySingles, 2)
	for i := 0; i < n6; i++ {
		id := fmt.Sprintf("cpe6-%d", i)
		as := pickAS(g.w.ASes, KindISP, g.sk(id, "as")...)
		addrs := []netip.Addr{as.AllocV6()}
		p := g.planDevice(id, netsim.KindRouter, addrs, nil, g.ipidForRouter(id), nil, as)
		p.snmp = &snmpPlan{cfg: g.planAgent(id)}
	}
}

// planAgent resolves the device's SNMPv3 agent configuration with a unique
// engine ID.
func (g *generator) planAgent(id string) snmpv3.AgentConfig {
	enterprise := uint32(2000 + g.intn(8000, id, "vendor"))
	return snmpv3.AgentConfig{
		EngineID:    snmpv3.NewEngineID(enterprise, xrand.Hash64(g.sk(id, "engine")...)),
		EngineBoots: int64(1 + g.intn(40, id, "boots")),
		BootTime:    g.w.Clock.Now().Add(-time.Duration(g.intn(10_000_000, id, "uptime")) * time.Second),
	}
}

// snmpRouterSize draws interface counts for SNMP routers: fewer two-address
// sets than SSH, more mid-sized sets (Figure 3's SNMPv3 curve).
func (g *generator) snmpRouterSize(id string) int {
	r := g.prob(id, "size")
	switch {
	case r < 0.26:
		return 2
	case r < 0.66:
		return 3 + g.intn(7, id, "size-mid")
	case r < 0.985:
		return 10 + xrand.Zipf(1.4, 69, g.sk(id, "size-hi")...)
	default:
		return 80 + xrand.Zipf(1.3, 220, g.sk(id, "size-xl")...)
	}
}

// planSNMPRouters: multi-interface routers answering SNMPv3 on (most of)
// their interfaces; a small fraction co-host SSH — the SSH↔SNMPv3
// validation population.
func (g *generator) planSNMPRouters() {
	n := g.cfg.scaled(g.cfg.SNMPRouters, 4)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("rtr-%d", i)
		kind := KindISP
		if g.prob(id, "as-kind") < 0.15 {
			kind = KindEnterprise
		}
		as := pickAS(g.w.ASes, kind, g.sk(id, "as")...)
		k := g.snmpRouterSize(id)
		// As with SSH hosts, a few routers carry interfaces numbered from a
		// sibling AS (sub-allocated customer space), giving SNMPv3 its thin
		// multi-AS tail in Figure 5.
		var secondAS *AS
		if g.prob(id, "second-as") < 0.05 {
			secondAS = pickAS(g.w.ASes, KindISP, g.sk(id, "as2")...)
		}
		var addrs []netip.Addr
		addrASN := make(map[netip.Addr]uint32)
		for j := 0; j < k; j++ {
			if secondAS != nil && j%4 == 3 {
				a := secondAS.AllocV4()
				addrs = append(addrs, a)
				addrASN[a] = secondAS.ASN
				continue
			}
			addrs = append(addrs, as.AllocV4())
		}
		if g.prob(id, "v6") < g.cfg.PSNMPRouterV6 {
			nv6 := 1
			if g.prob(id, "v6many") >= g.cfg.PSNMPRouterV6One {
				nv6 = 2 + g.intn(7, id, "v6n")
			}
			for j := 0; j < nv6; j++ {
				addrs = append(addrs, as.AllocV6())
			}
		}
		p := g.planDevice(id, netsim.KindRouter, addrs, addrASN, g.ipidForRouter(id), nil, as)
		var acl []netip.Addr
		if g.prob(id, "acl") < g.cfg.PSNMPAcl && len(addrs) >= 3 {
			acl = addrs[:len(addrs)*3/5]
		}
		p.snmp = &snmpPlan{cfg: g.planAgent(id), acl: acl}
		if g.prob(id, "ssh") < g.cfg.PSNMPRouterSSH {
			// SSH on the same interfaces SNMP answers on, so the two
			// techniques see the same alias structure (§2.6). The overlap
			// personality may be a clone — the validation-disagreement
			// population.
			snmpAddrs := acl
			if len(snmpAddrs) == 0 {
				snmpAddrs = addrs
			}
			p.ssh = g.planSSHOverlap(id)
			p.ssh.acl = snmpAddrs
		}
	}
}

// bgpMultiSize draws responsive-interface counts for identifiable BGP
// border routers: larger sets than SSH/SNMP (Figure 3's BGP curve).
func (g *generator) bgpMultiSize(id string) int {
	r := g.prob(id, "size")
	switch {
	case r < 0.25:
		return 2
	case r < 0.70:
		return 3 + g.intn(8, id, "size-mid")
	case r < 0.98:
		return 11 + xrand.Zipf(1.5, 48, g.sk(id, "size-hi")...)
	default:
		return 60 + xrand.Zipf(1.3, 190, g.sk(id, "size-xl")...)
	}
}

// planSpeaker resolves the device's BGP personality. The router-ID registry
// (duplicate-ID misconfigurations clone earlier routers) makes this
// planning-phase state.
func (g *generator) planSpeaker(id string, as *AS, firstAddr netip.Addr, hasV6 bool, behavior bgp.Behavior) *bgpPlan {
	routerID := addrToU32(firstAddr)
	if len(g.bgpIDs) > 0 && g.prob(id, "dup-id") < g.cfg.PDuplicateBGPID {
		routerID = g.bgpIDs[g.intn(len(g.bgpIDs), id, "dup-pick")]
	}
	g.bgpIDs = append(g.bgpIDs, routerID)
	hold := uint16(90)
	if g.prob(id, "hold") < 0.3 {
		hold = 180
	}
	return &bgpPlan{cfg: bgp.SpeakerConfig{
		ASN:                   as.ASN,
		RouterID:              routerID,
		HoldTime:              hold,
		Behavior:              behavior,
		CiscoRouteRefresh:     g.prob(id, "cisco") < 0.6,
		MPIPv6:                hasV6,
		OneParamPerCapability: g.prob(id, "pack") < 0.6,
	}}
}

// attachBGP sets a device plan's speaker and truth eligibility.
func (p *devicePlan) attachBGP(bp *bgpPlan) {
	p.bgp = bp
	p.bgpTruth = bp.cfg.Behavior != bgp.BehaviorSilentClose
}

// addrToU32 renders an IPv4 address as the router-ID integer; IPv6-only
// routers get a hash-derived ID.
func addrToU32(a netip.Addr) uint32 {
	if a.Is4() {
		b := a.As4()
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	}
	return uint32(xrand.Hash64Bytes(a.AsSlice()))
}

// planBGPPopulations plans all four BGP speaker classes.
func (g *generator) planBGPPopulations() {
	// Silent speakers: SYN-responsive on 179, zero identifier yield.
	for i := 0; i < g.cfg.scaled(g.cfg.BGPSilent, 5); i++ {
		id := fmt.Sprintf("bgps-%d", i)
		as := pickAS(g.w.ASes, KindISP, g.sk(id, "as")...)
		addrs := []netip.Addr{as.AllocV4()}
		if g.prob(id, "second") < 0.2 {
			addrs = append(addrs, as.AllocV4())
		}
		p := g.planDevice(id, netsim.KindRouter, addrs, nil, g.ipidForRouter(id), nil, as)
		p.attachBGP(g.planSpeaker(id, as, addrs[0], false, bgp.BehaviorSilentClose))
	}

	// Single-address identifiable speakers.
	for i := 0; i < g.cfg.scaled(g.cfg.BGPSingleSpeakers, 4); i++ {
		id := fmt.Sprintf("bgp1-%d", i)
		as := pickAS(g.w.ASes, KindISP, g.sk(id, "as")...)
		addrs := []netip.Addr{as.AllocV4()}
		p := g.planDevice(id, netsim.KindRouter, addrs, nil, g.ipidForRouter(id),
			g.filteredVantages(id, g.cfg.PBGPFiltersActive, g.cfg.PBGPMissedByCensys), as)
		p.attachBGP(g.planSpeaker(id, as, addrs[0], false, bgp.BehaviorOpenNotify))
	}

	// Multi-interface identifiable border routers.
	for i := 0; i < g.cfg.scaled(g.cfg.BGPMultiRouters, 8); i++ {
		id := fmt.Sprintf("bgpm-%d", i)
		as := pickAS(g.w.ASes, KindISP, g.sk(id, "as")...)
		k := g.bgpMultiSize(id)
		var addrs []netip.Addr
		addrASN := make(map[netip.Addr]uint32)
		multiAS := g.prob(id, "multi-as") < 0.38
		for j := 0; j < k; j++ {
			if multiAS && j > 0 && g.prob(id, "nb", fmt.Sprint(j)) < 0.45 {
				// Interface numbered from a neighbour's space: the reason
				// >35% of BGP sets span multiple ASes.
				nb := pickAS(g.w.ASes, KindISP, g.sk(id, "nb-as", fmt.Sprint(j))...)
				a := nb.AllocV4()
				addrs = append(addrs, a)
				addrASN[a] = nb.ASN
			} else {
				addrs = append(addrs, as.AllocV4())
			}
		}
		hasV6 := g.prob(id, "v6") < g.cfg.PBGPMultiV6
		if hasV6 {
			for j := 0; j < 2+g.intn(7, id, "v6n"); j++ {
				addrs = append(addrs, as.AllocV6())
			}
		}
		p := g.planDevice(id, netsim.KindRouter, addrs, addrASN, g.ipidForRouter(id),
			g.filteredVantages(id, g.cfg.PBGPFiltersActive, g.cfg.PBGPMissedByCensys), as)
		p.attachBGP(g.planSpeaker(id, as, addrs[0], hasV6, bgp.BehaviorOpenNotify))
		if g.prob(id, "snmp") < g.cfg.PBGPRouterSNMP {
			// Plain agent: at this scale the paper's ~5% BGP↔SNMPv3
			// disagreement rounds to zero expected sets. No SNMPv3 engine
			// ID is ever cloned; only SSH personalities are
			// (planSSHOverlap).
			p.snmp = &snmpPlan{cfg: g.planAgent(id)}
		}
		if g.prob(id, "ssh") < g.cfg.PBGPRouterSSH {
			p.ssh = g.planSSHOverlap(id)
		}
	}

	// IPv6-only speakers.
	for i := 0; i < g.cfg.scaled(g.cfg.BGPV6OnlyMultiRouters, 2); i++ {
		id := fmt.Sprintf("bgp6m-%d", i)
		as := pickAS(g.w.ASes, KindISP, g.sk(id, "as")...)
		var addrs []netip.Addr
		for j := 0; j < 2+g.intn(9, id, "v6n"); j++ {
			addrs = append(addrs, as.AllocV6())
		}
		p := g.planDevice(id, netsim.KindRouter, addrs, nil, g.ipidForRouter(id), nil, as)
		p.attachBGP(g.planSpeaker(id, as, addrs[0], true, bgp.BehaviorOpenNotify))
	}
	for i := 0; i < g.cfg.scaled(g.cfg.BGPV6OnlySingles, 2); i++ {
		id := fmt.Sprintf("bgp61-%d", i)
		as := pickAS(g.w.ASes, KindISP, g.sk(id, "as")...)
		addrs := []netip.Addr{as.AllocV6()}
		p := g.planDevice(id, netsim.KindRouter, addrs, nil, g.ipidForRouter(id), nil, as)
		p.attachBGP(g.planSpeaker(id, as, addrs[0], true, bgp.BehaviorOpenNotify))
	}
}

// fragProb is the probability a device answers fragment-eliciting probes.
func fragProb(kind netsim.DeviceKind) float64 {
	if kind == netsim.KindRouter {
		return 0.30
	}
	return 0.08
}

// brokenSSHHandler models a crashed or tarpitting daemon on TCP/22: the
// handshake completes but only junk follows. Exercises the scanner's error
// paths under failure injection.
type brokenSSHHandler struct{}

// Serve implements netsim.Handler.
func (brokenSSHHandler) Serve(conn net.Conn, sc netsim.ServeContext) {
	defer conn.Close()
	_, _ = conn.Write([]byte("\x00\xffnot-ssh 500 internal daemon error\r\n\r\n"))
	buf := make([]byte, 64)
	_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	_, _ = conn.Read(buf)
}

// decoys appends unbound addresses to the scan universe so SYN sweeps see a
// realistic filtered fraction.
func (g *generator) decoys() {
	decoy := &AS{ASN: 4294900000, Name: "decoy", Kind: KindEnterprise, index: len(g.w.ASes)}
	g.w.ASes = append(g.w.ASes, decoy)
	g.w.decoyAS = decoy
	n := int(g.cfg.DecoyFraction * float64(len(g.w.v4Universe)))
	for i := 0; i < n; i++ {
		a := decoy.AllocV4()
		g.w.v4Universe = append(g.w.v4Universe, a)
		g.w.AddrASN[a] = decoy.ASN
	}
}
