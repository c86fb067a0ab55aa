package netsim

import (
	"net/netip"
)

// Faults is the fabric's adversarial-condition dial: per-wire packet loss,
// rate-limiter throttling, and IPID-policy overrides. The zero value injects
// nothing. Scenario presets (internal/scenario) compose these with topo
// knobs to build the worlds where MIDAR-style baselines break.
//
// Determinism contract: every drop decision is quenched randomness — a
// Bernoulli draw keyed by (Seed, fault kind, vantage, target address, port),
// never by execution order, wall clock, or a shared counter. A lossy wire
// therefore loses the same probes in every run, which is what keeps Datasets
// and SCENARIOS.json byte-identical for a fixed seed at any concurrency
// setting.
type Faults struct {
	// Seed keys the drop draws; scenario runs reuse the world seed.
	Seed uint64
	// LossRate is per-wire packet loss in [0, 1): each (vantage, addr,
	// port, probe kind) wire independently drops with this probability.
	// Loss hits everything — SYN probes, service dials, UDP exchanges,
	// ICMP/IPID/fragment probes.
	LossRate float64
	// ThrottleRate models upstream SYN/ICMP rate limiters in [0, 1): it
	// additionally drops the *fast-path* probes a polite scanner fires in
	// bulk (SYN sweeps, IPID sampling, UDP discovery), while established
	// service dials pass. This is the "scanner gets rate limited" regime,
	// distinct from loss, which also breaks completed handshakes.
	ThrottleRate float64
	// IPIDPolicy, when non-nil, overrides every device's IP-identification
	// model — e.g. forcing IPIDPerInterface world-wide reproduces the
	// counter-per-interface routers that defeat MIDAR's monotonic-bounds
	// test. Counter state stays per-device, so the override is safe to
	// apply to an already built world.
	IPIDPolicy *IPIDModel
}

// IPIDPolicyOf is a convenience constructor for the override pointer.
func IPIDPolicyOf(m IPIDModel) *IPIDModel { return &m }

// active reports whether the faults would change any behaviour.
func (fl Faults) active() bool {
	return fl.LossRate > 0 || fl.ThrottleRate > 0 || fl.IPIDPolicy != nil
}

// Probe kinds keying the independent drop draws. Distinct kinds make the SYN
// sweep and the follow-up service dial independent wires, as they are in
// real measurement (the SYN that got through says nothing about the next
// packet).
const (
	faultSYN byte = iota + 1
	faultDial
	faultUDP
	faultICMP
	faultFrag
)

// Salts separating the loss and throttle draw streams.
const (
	saltLoss     byte = 'L'
	saltThrottle byte = 'T'
)

// quench maps one wire to a stable variate in [0, 1): FNV-1a (the same hash
// family as xrand.Hash64, inlined over binary inputs so the probe hot loops
// stay allocation-free) over (seed, salt, kind, vantage, addr, port), with
// xrand.Prob's uint64→float64 mapping.
func quench(seed uint64, salt, kind byte, vantage string, addr netip.Addr, port uint16) float64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 64; i += 8 {
		h ^= (seed >> i) & 0xff
		h *= prime
	}
	h ^= uint64(salt)
	h *= prime
	h ^= uint64(kind)
	h *= prime
	for i := 0; i < len(vantage); i++ {
		h ^= uint64(vantage[i])
		h *= prime
	}
	a16 := addr.As16()
	for _, b := range a16 {
		h ^= uint64(b)
		h *= prime
	}
	h ^= uint64(port & 0xff)
	h *= prime
	h ^= uint64(port >> 8)
	h *= prime
	return float64(h>>11) / (1 << 53)
}

// lost reports whether per-wire loss eats this probe.
func (fl *Faults) lost(kind byte, vantage string, addr netip.Addr, port uint16) bool {
	return fl.LossRate > 0 && quench(fl.Seed, saltLoss, kind, vantage, addr, port) < fl.LossRate
}

// throttled reports whether the rate limiter eats this fast-path probe.
func (fl *Faults) throttled(kind byte, vantage string, addr netip.Addr, port uint16) bool {
	return fl.ThrottleRate > 0 && quench(fl.Seed, saltThrottle, kind, vantage, addr, port) < fl.ThrottleRate
}

// Draw exposes one wire's quenched fault decision — the loss and throttle
// Bernoulli draws every fast-path probe pays under an active policy. It
// exists for benchmarks and diagnostics (the alloc gate prices it at zero
// heap allocations); the probe paths use the unexported equivalents.
func (fl Faults) Draw(vantage string, addr netip.Addr, port uint16) (lost, throttled bool) {
	return fl.lost(faultSYN, vantage, addr, port), fl.throttled(faultSYN, vantage, addr, port)
}

// SetFaults installs the fault policy on the fabric. Call it between scans,
// never during one — like churn, fault changes are ordered world mutations
// (the probe paths themselves read the policy with one atomic load, so a
// fault-free fabric pays nothing on the hot paths).
func (f *Fabric) SetFaults(fl Faults) {
	if !fl.active() {
		f.faults.Store(nil)
		return
	}
	f.faults.Store(&fl)
}

// faultDrop reports whether the installed policy (loss or throttle) eats a
// fast-path probe from this vantage. The single nil check is the entire
// fault-free cost.
func (v *Vantage) faultDrop(kind byte, addr netip.Addr, port uint16) bool {
	fl := v.fabric.faults.Load()
	if fl == nil {
		return false
	}
	return fl.lost(kind, v.label, addr, port) || fl.throttled(kind, v.label, addr, port)
}

// faultLost is the loss-only variant for the dial path: rate limiters target
// probe floods, not the single follow-up connection.
func (v *Vantage) faultLost(kind byte, addr netip.Addr, port uint16) bool {
	fl := v.fabric.faults.Load()
	return fl != nil && fl.lost(kind, v.label, addr, port)
}

// ipidPolicy returns the installed IPID override, or nil.
func (v *Vantage) ipidPolicy() *IPIDModel {
	if fl := v.fabric.faults.Load(); fl != nil {
		return fl.IPIDPolicy
	}
	return nil
}
