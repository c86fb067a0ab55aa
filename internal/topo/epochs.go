package topo

import (
	"fmt"
	"net/netip"

	"aliaslimit/internal/bgp"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/snmpv3"
	"aliaslimit/internal/sshwire"
	"aliaslimit/internal/xrand"
)

// Epoch churn: the between-snapshot world mutations that make time a
// measurement axis. A longitudinal run (experiments.EnvSeries) interleaves N
// snapshot→churn→scan rounds over one persistent world; between rounds this
// file reassigns addresses, reboots devices into fresh identifiers, and takes
// interfaces down or back up — always updating the ground truth in lockstep,
// so every epoch stays scorable against what the world actually answered.
//
// Determinism contract: every decision is a hash-keyed draw over
// (seed, operation, epoch, entity), never execution order, and all candidate
// enumerations walk sorted device IDs. Applying the same spec to the same
// world at the same epoch therefore always performs the identical mutations.

// EpochChurn is the per-epoch-boundary churn specification.
type EpochChurn struct {
	// Renumber is the probability that a dynamic address is reassigned to a
	// freshly provisioned device between epochs. It covers both the classic
	// single-address server pool and individual interfaces of multi-address
	// SSH hosts (the stale-identifier false-merge population: the old
	// identifier keeps claiming an address that now belongs to someone else).
	Renumber float64
	// Reboot is the probability that a device reboots into fresh identifier
	// material between epochs: a regenerated SSH host key (and software
	// profile), a re-initialised SNMPv3 engine ID, and a re-keyed BGP OPEN
	// personality (fresh router ID and capability presentation; same AS and
	// peering behavior). Addresses and ground truth are unchanged — only
	// identifier persistence breaks.
	Reboot float64
	// WireDown is the probability that a non-primary interface of a
	// multi-address device is de-provisioned for this epoch (maintenance,
	// renumbering windows). The address goes dark and leaves the ground
	// truth until a later epoch restores it.
	WireDown float64
	// WireUp is the probability per epoch that a previously downed wire is
	// restored, rejoining the fabric and the ground truth.
	WireUp float64
}

// active reports whether the spec mutates anything.
func (c EpochChurn) active() bool {
	return c.Renumber > 0 || c.Reboot > 0 || c.WireDown > 0 || c.WireUp > 0
}

// EpochChurnStats counts the mutations one ApplyEpochChurn pass performed.
type EpochChurnStats struct {
	// Renumbered counts reassigned addresses (single-server pool plus
	// multi-address interfaces).
	Renumbered int
	// Rebooted counts devices whose identifier material was regenerated.
	Rebooted int
	// WiresDown / WiresUp count interface de-provisionings and restorations.
	WiresDown int
	// WiresUp counts restored interfaces.
	WiresUp int
}

// darkWire remembers a de-provisioned interface so a later epoch can restore
// it — including which ground-truth populations the address belonged to.
type darkWire struct {
	deviceID string
	addr     netip.Addr
	inSSH    bool
	inBGP    bool
	inSNMP   bool
}

// ApplyEpochChurn mutates the world between measurement epochs according to
// spec, keeping the ground truth consistent with what the fabric now answers.
// epoch must be >= 1 and unique per boundary (it keys the draws). Call it
// strictly between scans, like ApplyChurn. Deterministic per (world seed,
// spec, epoch).
func (w *World) ApplyEpochChurn(spec EpochChurn, epoch int) EpochChurnStats {
	var st EpochChurnStats
	if !spec.active() {
		return st
	}
	ek := fmt.Sprint(epoch)
	// Restore first: a wire that comes back up this epoch is visible to this
	// epoch's snapshot, and cannot be re-downed in the same pass (downWires
	// skips the just-restored addresses).
	var restored map[netip.Addr]bool
	st.WiresUp, restored = w.restoreWires(spec.WireUp, ek)
	st.WiresDown = w.downWires(spec.WireDown, ek, restored)
	if spec.Renumber > 0 {
		// Single-address dynamic pool: the paper's intra-gap churn mechanism,
		// on a round number that can never collide with the intra-epoch
		// rounds (which are odd; see experiments.EnvSeries).
		st.Renumbered += w.ApplyChurn(spec.Renumber, 2*epoch)
		st.Renumbered += w.renumberInterfaces(spec.Renumber, epoch, ek)
	}
	st.Rebooted = w.rebootDevices(spec.Reboot, ek)
	return st
}

// removeTruth drops addr from the device's list in m without creating empty
// entries for devices the map never knew.
func removeTruth(m map[string][]netip.Addr, id string, addr netip.Addr) {
	if list, ok := m[id]; ok {
		m[id] = removeAddr(list, addr)
	}
}

// containsAddr reports whether list holds addr.
func containsAddr(list []netip.Addr, addr netip.Addr) bool {
	for _, a := range list {
		if a == addr {
			return true
		}
	}
	return false
}

// downWires de-provisions non-primary interfaces of multi-address devices:
// the address is unbound from the fabric and removed from every ground-truth
// population it belonged to, with a darkWire record kept for restoration.
// Addresses in skip (restored earlier in the same pass) are left alone.
func (w *World) downWires(frac float64, ek string, skip map[netip.Addr]bool) int {
	if frac <= 0 {
		return 0
	}
	n := 0
	// One streaming hasher per phase: the (seed, operation, epoch) prefix is
	// hashed once, then copied per draw — bit-identical to the historical
	// Prob(fmt.Sprint(seed), "wire-down", ek, id, a.String()) keys, with zero
	// per-draw allocations.
	prefix := xrand.NewHasher()
	prefix.KeyUint(w.Cfg.Seed)
	prefix.Key("wire-down")
	prefix.Key(ek)
	for _, id := range w.sortedTruthDevices() {
		addrs := w.truthAddrs(id)
		if len(addrs) < 2 {
			continue
		}
		d := w.Fabric.Device(id)
		if d == nil {
			continue
		}
		// The first truth address stays up, so a device never goes fully
		// dark from wire churn alone.
		for _, a := range addrs[1:] {
			if skip[a] {
				continue
			}
			k := prefix
			k.Key(id)
			k.KeyAddr(a)
			if k.Prob() >= frac {
				continue
			}
			if w.Fabric.Lookup(a) != d {
				continue // churned away or already dark
			}
			w.Fabric.Unbind(a)
			rec := darkWire{deviceID: id, addr: a,
				inSSH:  containsAddr(w.Truth.SSHAddrs[id], a),
				inBGP:  containsAddr(w.Truth.BGPAddrs[id], a),
				inSNMP: containsAddr(w.Truth.SNMPAddrs[id], a),
			}
			removeTruth(w.Truth.SSHAddrs, id, a)
			removeTruth(w.Truth.BGPAddrs, id, a)
			removeTruth(w.Truth.SNMPAddrs, id, a)
			w.darkWires = append(w.darkWires, rec)
			n++
		}
	}
	return n
}

// restoreWires re-binds a fraction of dark wires and returns their addresses
// to the ground-truth populations they came from, reporting which addresses
// came back up.
func (w *World) restoreWires(frac float64, ek string) (int, map[netip.Addr]bool) {
	if frac <= 0 || len(w.darkWires) == 0 {
		return 0, nil
	}
	n := 0
	restored := make(map[netip.Addr]bool)
	kept := w.darkWires[:0]
	prefix := xrand.NewHasher()
	prefix.KeyUint(w.Cfg.Seed)
	prefix.Key("wire-up")
	prefix.Key(ek)
	for _, rec := range w.darkWires {
		k := prefix
		k.Key(rec.deviceID)
		k.KeyAddr(rec.addr)
		up := k.Prob() < frac
		// An address churned to a replacement device while dark stays with
		// its new owner; the old wire record is then obsolete.
		if conflict := w.Fabric.Lookup(rec.addr); conflict != nil {
			continue
		}
		if !up {
			kept = append(kept, rec)
			continue
		}
		if err := w.Fabric.Bind(rec.addr, rec.deviceID); err != nil {
			continue
		}
		if rec.inSSH {
			w.Truth.SSHAddrs[rec.deviceID] = append(w.Truth.SSHAddrs[rec.deviceID], rec.addr)
		}
		if rec.inBGP {
			w.Truth.BGPAddrs[rec.deviceID] = append(w.Truth.BGPAddrs[rec.deviceID], rec.addr)
		}
		if rec.inSNMP {
			w.Truth.SNMPAddrs[rec.deviceID] = append(w.Truth.SNMPAddrs[rec.deviceID], rec.addr)
		}
		restored[rec.addr] = true
		n++
	}
	w.darkWires = kept
	return n, restored
}

// renumberInterfaces reassigns individual interfaces of multi-address SSH
// hosts to freshly provisioned single servers. This is the stale-identifier
// population: the host's identifier observed in an earlier epoch still claims
// the address, but the address now belongs to a new device — exactly the
// false merge a naive cumulative union of epochs commits.
func (w *World) renumberInterfaces(frac float64, epoch int, ek string) int {
	n := 0
	g := newGenerator(w, w.Cfg)
	prefix := xrand.NewHasher()
	prefix.KeyUint(w.Cfg.Seed)
	prefix.Key("epoch-renum")
	prefix.Key(ek)
	for _, id := range w.sortedTruthDevices() {
		addrs := w.Truth.SSHAddrs[id]
		if len(addrs) < 2 {
			continue
		}
		d := w.Fabric.Device(id)
		if d == nil {
			continue
		}
		// Walk a snapshot: the loop edits the truth list it reads.
		for _, a := range append([]netip.Addr(nil), addrs[1:]...) {
			k := prefix
			k.Key(id)
			k.KeyAddr(a)
			if k.Prob() >= frac {
				continue
			}
			if w.Fabric.Lookup(a) != d {
				continue
			}
			w.Fabric.Unbind(a)
			newID := fmt.Sprintf("%s-ren%d-%s", id, epoch, a)
			if err := g.replacementServer(newID, a); err != nil {
				continue // address left dark — also realistic
			}
			removeTruth(w.Truth.SSHAddrs, id, a)
			removeTruth(w.Truth.BGPAddrs, id, a)
			removeTruth(w.Truth.SNMPAddrs, id, a)
			n++
		}
	}
	return n
}

// rebootDevices regenerates identifier material for a fraction of devices:
// a fresh SSH host key and software profile, a re-initialised SNMPv3 engine
// ID, and a re-keyed BGP OPEN personality. The device keeps its addresses
// and service ACLs, so the ground truth is untouched — the alias structure
// is intact but must be re-learned from the new identifiers, which is what
// the persistence metrics measure.
func (w *World) rebootDevices(frac float64, ek string) int {
	if frac <= 0 {
		return 0
	}
	n := 0
	g := newGenerator(w, w.Cfg)
	prefix := xrand.NewHasher()
	prefix.KeyUint(w.Cfg.Seed)
	prefix.Key("reboot")
	prefix.Key(ek)
	for _, id := range w.sortedTruthDevices() {
		k := prefix
		k.Key(id)
		if k.Prob() >= frac {
			continue
		}
		d := w.Fabric.Device(id)
		if d == nil {
			continue
		}
		tag := fmt.Sprintf("%s#boot-%s", id, ek)
		rebooted := false
		if len(w.Truth.SSHAddrs[id]) > 0 {
			if acl := d.ServiceAddrs(22); len(acl) > 0 {
				profile := g.pickProfile(d.Kind() == netsim.KindRouter, tag)
				d.SetService(22, sshwire.NewServer(sshwire.ServerConfig{
					Banner:           profile.Banner,
					Algorithms:       profile.Algorithms,
					HostKey:          g.hostKey(tag),
					HandshakeTimeout: simHandshakeTimeout,
				}), acl...)
				rebooted = true
			}
		}
		if len(w.Truth.SNMPAddrs[id]) > 0 {
			if acl := d.UDPServiceAddrs(snmpv3.Port); len(acl) > 0 {
				enterprise := uint32(2000 + g.intn(8000, tag, "vendor"))
				d.SetUDPService(snmpv3.Port, snmpv3.NewAgent(snmpv3.AgentConfig{
					EngineID:    snmpv3.NewEngineID(enterprise, g.key(tag, "engine").Sum64()),
					EngineBoots: int64(1 + g.intn(40, tag, "boots")),
					BootTime:    w.Clock.Now(),
				}).Handle, acl...)
				rebooted = true
			}
		}
		if len(w.Truth.BGPAddrs[id]) > 0 {
			// BGP re-keying: the rebooted router comes back with a fresh
			// router ID (operators commonly derive it from a loopback that
			// was renumbered, or it reverts to an auto-selected value) and a
			// re-negotiated capability presentation — a new OPEN identifier.
			// ASN, peering behavior, and address families survive the
			// reboot, and the device keeps answering on the same addresses,
			// so the ground-truth lineage is untouched: the alias structure
			// is intact but must be re-learned, exactly as for SSH and
			// SNMPv3.
			if cfg, ok := w.bgpSpeakers[id]; ok && len(d.ServiceAddrs(179)) > 0 {
				cfg.RouterID = uint32(g.key(tag, "router-id").Sum64())
				cfg.HoldTime = 90
				if g.prob(tag, "hold") < 0.3 {
					cfg.HoldTime = 180
				}
				cfg.CiscoRouteRefresh = g.prob(tag, "cisco") < 0.6
				cfg.OneParamPerCapability = g.prob(tag, "pack") < 0.6
				d.SetService(179, bgp.NewSpeaker(cfg))
				// Consecutive reboots evolve from the latest personality.
				w.bgpSpeakers[id] = cfg
				rebooted = true
			}
		}
		if rebooted {
			n++
		}
	}
	return n
}

// Snapshot deep-copies the ground truth. EnvSeries snapshots it at every
// epoch's scan time, so per-epoch scoring judges each measurement against the
// world as it stood when measured, not as it ended up.
func (t *Truth) Snapshot() *Truth {
	cp := &Truth{
		SSHAddrs:  copyTruthMap(t.SSHAddrs),
		BGPAddrs:  copyTruthMap(t.BGPAddrs),
		SNMPAddrs: copyTruthMap(t.SNMPAddrs),
		Fleets:    make(map[string][]string, len(t.Fleets)),
	}
	for k, v := range t.Fleets {
		cp.Fleets[k] = append([]string(nil), v...)
	}
	return cp
}

// copyTruthMap deep-copies one device→addresses map, dropping entries whose
// address list churned away entirely (their devices answer nothing anymore).
func copyTruthMap(m map[string][]netip.Addr) map[string][]netip.Addr {
	out := make(map[string][]netip.Addr, len(m))
	for k, v := range m {
		if len(v) == 0 {
			continue
		}
		out[k] = append([]netip.Addr(nil), v...)
	}
	return out
}
