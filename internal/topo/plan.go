package topo

import (
	"crypto/ed25519"
	"net/netip"
	"runtime"
	"sync"

	"aliaslimit/internal/bgp"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/snmpv3"
	"aliaslimit/internal/sshwire"
)

// World generation runs in three phases so the expensive per-device work can
// shard across CPU cores without changing a single byte of output:
//
//  1. Plan (sequential): every order-dependent decision — AS address
//     allocation, the fleet / overlap-personality / duplicate-router-ID
//     registries, ground-truth fleet bookkeeping — resolves in canonical
//     device order. All randomness is hash-keyed by stable labels, so the
//     draws themselves are order-free; only the allocators and registries
//     need the sequential pass.
//  2. Build (parallel): host-key generation and device/service construction
//     (the ed25519 and wire-protocol material that dominates Build's cost)
//     shard across GOMAXPROCS workers. Every plan is independent: shared
//     personalities were already resolved, and keys are pure functions of
//     (seed, label).
//  3. Commit (sequential): devices bind to the fabric in plan order, and the
//     ground-truth, PTR, and churn records are written exactly as the
//     sequential generator did.
//
// The output is byte-identical at every GOMAXPROCS — the same contract the
// collection pipeline keeps for its scan pools.

// sshPersona is a resolved SSH identity: the fleet/overlap label recorded in
// ground truth, the label the host key derives from, the software profile
// and the host key. Shared personalities (fleet keys, cloned management
// configs) are the same *sshPersona on every member.
type sshPersona struct {
	label    string
	keyLabel string
	profile  *sshwire.Profile
	// key is made by the build phase (or at once by a churn pass).
	key ed25519.PrivateKey
}

// newPersona resolves a fresh SSH personality and records it for the build
// phase, which makes its host key.
func (g *generator) newPersona(label, keyLabel string, router bool) *sshPersona {
	p := &sshPersona{label: label, keyLabel: keyLabel, profile: g.pickProfile(router, keyLabel)}
	g.personas = append(g.personas, p)
	return p
}

// sshPlan is a planned SSH service binding.
type sshPlan struct {
	persona *sshPersona
	// varied marks per-interface capability variation; variedAddr is the
	// interface announcing the reduced algorithm set.
	varied     bool
	variedAddr netip.Addr
	acl        []netip.Addr
}

// snmpPlan is a planned SNMPv3 agent binding.
type snmpPlan struct {
	cfg snmpv3.AgentConfig
	acl []netip.Addr
}

// bgpPlan is a planned BGP speaker binding.
type bgpPlan struct {
	cfg bgp.SpeakerConfig
}

// devicePlan carries one device from the planning pass to the build and
// commit passes.
type devicePlan struct {
	id   string
	kind netsim.DeviceKind
	as   *AS
	dcfg netsim.DeviceConfig

	brokenSSH bool
	ssh       *sshPlan
	snmp      *snmpPlan
	bgp       *bgpPlan
	// bgpTruth records whether the speaker is identifiable (sends OPEN) and
	// therefore belongs in the BGP ground truth.
	bgpTruth bool
	// churnable marks single-address dynamic servers eligible for
	// reassignment between measurement epochs.
	churnable bool

	// device is filled by the build phase.
	device *netsim.Device
}

// planDevice records a device plan in canonical order and returns it for
// service attachment. The full netsim.DeviceConfig is resolved here — all
// its draws are hash-keyed and cheap.
func (g *generator) planDevice(id string, kind netsim.DeviceKind, addrs []netip.Addr,
	addrASN map[netip.Addr]uint32, ipid ipidChoice, filtered []string, ownAS *AS) *devicePlan {
	// The AS map must be visible during planning: fleet labels are keyed by
	// the first address's ASN. Commit re-records the same values via bind.
	for _, a := range addrs {
		asn := ownAS.ASN
		if o, ok := addrASN[a]; ok {
			asn = o
		}
		g.w.AddrASN[a] = asn
	}
	p := &devicePlan{
		id:   id,
		kind: kind,
		as:   ownAS,
		dcfg: netsim.DeviceConfig{
			ID:           id,
			ASN:          ownAS.ASN,
			Kind:         kind,
			Addrs:        addrs,
			AddrASN:      addrASN,
			IPID:         ipid.model,
			IPIDVelocity: ipid.velocity,
			IPIDSeed:     g.key(id, "ipid-seed").Sum64(),
			Pingable:     ipid.pingable,
			// Most devices defeat the common-source-address technique: they
			// answer ICMP errors from the probed address or not at all — the
			// paper's motivation for moving to application-layer identifiers.
			RespondsFromProbed: g.prob(id, "icmp-same") < 0.80,
			ICMPSilent:         g.prob(id, "icmp-silent") < 0.45,
			// Few devices answer Speedtrap's fragment-eliciting probes at
			// all; routers somewhat more often than hosts.
			EmitsFragmentIDs: g.prob(id, "frag") < fragProb(kind),
			FilteredVantages: filtered,
		},
	}
	g.plans = append(g.plans, p)
	return p
}

// buildDevices runs the parallel phase: the host key of every persona, then
// device and service construction per plan.
func (g *generator) buildDevices() error {
	workers := runtime.GOMAXPROCS(0)
	runSharded(workers, len(g.personas), func(i int) error {
		p := g.personas[i]
		p.key = g.hostKey(p.keyLabel)
		return nil
	})
	return runSharded(workers, len(g.plans), func(i int) error {
		return g.buildDevice(g.plans[i])
	})
}

// buildDevice constructs one plan's device and its services. Device-local
// only: no fabric, registry, or map mutation.
func (g *generator) buildDevice(p *devicePlan) error {
	d, err := netsim.NewDevice(p.dcfg, g.w.Clock.Now())
	if err != nil {
		return err
	}
	// SNMP-dark worlds: the agent exists in the plan but was administratively
	// disabled. Clearing the plan here (hash-keyed, order-free draw) removes
	// both the service and — because commit reads p.snmp — the ground truth.
	if p.snmp != nil && g.cfg.PSNMPDisabled > 0 && g.prob(p.id, "snmp-dark") < g.cfg.PSNMPDisabled {
		p.snmp = nil
	}
	if p.brokenSSH {
		// Misbehaving daemon: speaks garbage on port 22. It stays out of the
		// ground truth — a scanner should learn nothing here.
		d.SetService(22, brokenSSHHandler{})
	}
	if p.ssh != nil {
		d.SetService(22, g.buildSSHServer(p.ssh), p.ssh.acl...)
	}
	if p.snmp != nil {
		d.SetUDPService(snmpv3.Port, snmpv3.NewAgent(p.snmp.cfg).Handle, p.snmp.acl...)
	}
	if p.bgp != nil {
		d.SetService(179, bgp.NewSpeaker(p.bgp.cfg))
	}
	p.device = d
	return nil
}

// buildSSHServer realises a planned SSH service with its persona's host key.
func (g *generator) buildSSHServer(sp *sshPlan) *sshwire.Server {
	cfg := sshwire.ServerConfig{
		Banner:           sp.persona.profile.Banner,
		Algorithms:       sp.persona.profile.Algorithms,
		HostKey:          sp.persona.key,
		HandshakeTimeout: simHandshakeTimeout,
	}
	if sp.varied {
		varied := sp.persona.profile.Algorithms.Clone()
		if len(varied.MAC) > 2 {
			varied.MAC = varied.MAC[:len(varied.MAC)-2]
		} else {
			varied.Compression = []string{"none"}
		}
		special := sp.variedAddr
		base := sp.persona.profile.Algorithms
		cfg.AlgorithmsFor = func(a netip.Addr) sshwire.Algorithms {
			if a == special {
				return varied
			}
			return base
		}
	}
	return sshwire.NewServer(cfg)
}

// commit binds every built device in plan order and writes ground truth,
// PTR names, and churn records — the exact bookkeeping the sequential
// generator performed inline.
func (g *generator) commit() error {
	for _, p := range g.plans {
		d := p.device
		if err := g.w.bind(d, p.as); err != nil {
			return err
		}
		g.assignPTRNames(d, p.kind, p.as)
		if p.ssh != nil {
			g.w.Truth.SSHAddrs[d.ID()] = d.ServiceAddrs(22)
			g.w.registerTruthDevice(d.ID())
		}
		if p.snmp != nil {
			g.w.Truth.SNMPAddrs[d.ID()] = d.UDPServiceAddrs(snmpv3.Port)
			g.w.registerTruthDevice(d.ID())
		}
		if p.bgp != nil && p.bgpTruth {
			g.w.Truth.BGPAddrs[d.ID()] = d.ServiceAddrs(179)
			g.w.registerTruthDevice(d.ID())
			// Remembered so epoch-boundary reboots can re-key the speaker.
			g.w.bgpSpeakers[d.ID()] = p.bgp.cfg
		}
		if p.churnable {
			g.w.churnable = append(g.w.churnable, churnRecord{deviceID: p.id, addr: p.dcfg.Addrs[0]})
		}
	}
	return nil
}

// runSharded strides f(0..n-1) across workers goroutines and returns the
// first error.
func runSharded(workers, n int, f func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}
