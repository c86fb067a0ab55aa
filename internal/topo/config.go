// Package topo deterministically generates the synthetic Internet the
// experiments run against: autonomous systems of several kinds, cloud
// servers, multi-interface routers, service deployment with ACLs,
// dual-stack assignment, IPID counter temperaments, scanning-vantage
// filtering, and the misconfigurations the paper lists as accuracy limits
// (factory-default SSH keys, duplicate BGP router IDs).
//
// All population parameters are calibrated so that, at Scale = 1.0
// (≈ 1:1000 of the paper's measured Internet), the experiment harness
// reproduces the *shape* of every table and figure: who wins, by what
// factor, and where the distributions bend.
package topo

// Config holds every generation knob. The zero value is not useful; start
// from Default() and override.
type Config struct {
	// Seed drives all pseudo-random draws; equal seeds give equal worlds.
	Seed uint64
	// Scale multiplies every population count. 1.0 ≈ 1:1000 of the paper's
	// Internet; tests use 0.05–0.2.
	Scale float64

	// --- population sizes at Scale = 1.0 ---

	// SingleSSHServers is the count of single-service cloud SSH hosts (the
	// paper's dominant SSH population: ~18.7M of 24.4M SSH IPv4s are in no
	// non-singleton set).
	SingleSSHServers int
	// MultiSSHHosts is the count of hosts with ≥2 SSH-responsive IPv4
	// addresses (the source of the ~926k union SSH alias sets).
	MultiSSHHosts int
	// SNMPSingleDevices is the count of single-interface SNMPv3 responders
	// (CPE-class, ~14.7M in the paper).
	SNMPSingleDevices int
	// SNMPRouters is the count of multi-interface SNMPv3 routers (the
	// ~557k SNMP alias sets covering 6.1M addresses).
	SNMPRouters int
	// BGPSilent is the count of BGP speakers that close immediately after
	// the handshake (the paper's 5.8M unidentifiable speakers).
	BGPSilent int
	// BGPSingleSpeakers is the count of identifiable BGP speakers whose
	// OPEN is reachable on exactly one address.
	BGPSingleSpeakers int
	// BGPMultiRouters is the count of identifiable BGP border routers with
	// multiple responsive interfaces (the ~12k BGP alias sets).
	BGPMultiRouters int

	// --- vantage coverage (why Censys sees more) ---

	// PCloudFiltersActive is the probability a cloud SSH host's upstream
	// IDS drops the single research vantage (Censys-only coverage).
	PCloudFiltersActive float64
	// PCloudMissedByCensys is the probability a host appeared after the
	// Censys snapshot (active-only coverage).
	PCloudMissedByCensys float64
	// PBGPFiltersActive / PBGPMissedByCensys are the BGP equivalents.
	PBGPFiltersActive  float64
	PBGPMissedByCensys float64

	// --- dual-stack assignment ---
	//
	// Calibration note: the paper's 634k SSH dual-stack sets cover only
	// 1.05M IPv4 and 771k IPv6 addresses (88% of sets are one v4 plus one
	// v6), so dual-stack must be dominated by single cloud servers, and a
	// large share of the known IPv6 population must be IPv6-only (the
	// paper finds just 64% of IPv6 addresses have a v4 counterpart).

	// PServerV6 is the probability a single cloud server is dual-stack.
	PServerV6 float64
	// PServerV6Only is the probability a cloud server is IPv6-only.
	PServerV6Only float64
	// PMultiSSHOneV6 / PMultiSSHManyV6: multi-address SSH hosts with one /
	// several (2–10) IPv6 addresses.
	PMultiSSHOneV6  float64
	PMultiSSHManyV6 float64
	// PSNMPRouterV6 is the probability an SNMP router has IPv6 interfaces
	// (1 with probability PSNMPRouterV6One, else 2–8).
	PSNMPRouterV6    float64
	PSNMPRouterV6One float64
	// SNMPV6OnlySingles is the count of IPv6-only single SNMP responders.
	SNMPV6OnlySingles int
	// PBGPMultiV6 is the probability an identifiable multi-interface BGP
	// router also speaks on 2–8 IPv6 addresses (the dual-stack BGP sets).
	PBGPMultiV6 float64
	// BGPV6OnlyMultiRouters / BGPV6OnlySingles are IPv6-only BGP speaker
	// counts (multi-address and single-address).
	BGPV6OnlyMultiRouters int
	BGPV6OnlySingles      int

	// --- cross-protocol co-location (the 3% multi-service addresses) ---

	// PSNMPRouterSSH is the probability an SNMP router also exposes SSH on
	// (a subset of) the same interfaces.
	PSNMPRouterSSH float64
	// PBGPRouterSNMP is the probability an identifiable BGP router also
	// answers SNMPv3.
	PBGPRouterSNMP float64
	// PBGPRouterSSH is the probability an identifiable BGP router also
	// exposes SSH.
	PBGPRouterSSH float64

	// --- misconfigurations (accuracy limits) ---

	// PSharedSSHKey is the probability a multi-address SSH host uses a
	// fleet/factory key shared with a sibling device (the paper's §2.7
	// false-merge source).
	PSharedSSHKey float64
	// PSSHPerIfaceVariation is the probability a multi-address SSH host
	// announces different algorithm capabilities per interface (the
	// paper's 0.4%).
	PSSHPerIfaceVariation float64
	// PDuplicateBGPID is the probability a BGP router reuses another
	// router's BGP identifier (mis-configuration; usually still separated
	// by ASN/hold-time in the full identifier).
	PDuplicateBGPID float64
	// PCloneSSHKeyOverlap is the probability a multi-service router (one
	// visible to two techniques at once) runs a cloned management config —
	// same SSH host key and software as a sibling router. These clones are
	// what the cross-technique validation "disagree" column counts.
	PCloneSSHKeyOverlap float64

	// --- ACLs ---

	// PSSHAcl is the probability SSH answers only on a subset of a
	// multi-address host's interfaces.
	PSSHAcl float64
	// PSNMPAcl is the probability SNMPv3 answers only on a subset.
	PSNMPAcl float64
	// PSNMPDisabled is the probability a device that would run SNMPv3 has
	// the agent administratively disabled (security hardening has been
	// shrinking the SNMP population for years). The device keeps its
	// addresses and other services; it simply never answers engine
	// discovery, and it leaves the SNMP ground truth entirely. Scenario
	// presets use this to model an "SNMP-dark" Internet.
	PSNMPDisabled float64

	// --- IPv6 hitlist ---

	// HitlistCoverage is the fraction of bound IPv6 addresses present in
	// the hitlist the active scan targets.
	HitlistCoverage float64

	// --- decoys and chaos ---

	// DecoyFraction adds unbound addresses to the scan universe so the
	// SYN phase classifies some probes as filtered.
	DecoyFraction float64
	// PBrokenSSH is the probability a cloud SSH host is misbehaving: it
	// accepts the connection but emits a non-SSH byte stream (crashed
	// daemons, tarpits, middleboxes). Scanners must survive and simply
	// record no identifier.
	PBrokenSSH float64
}

// Default returns the calibrated configuration. Counts are per Scale unit
// (Scale 1.0 ≈ 1:1000 of the paper's measurement).
func Default() Config {
	return Config{
		Seed:  1,
		Scale: 1.0,

		SingleSSHServers:  18700,
		MultiSSHHosts:     930,
		SNMPSingleDevices: 14700,
		SNMPRouters:       560,
		BGPSilent:         5800,
		BGPSingleSpeakers: 234,
		BGPMultiRouters:   12,

		PCloudFiltersActive:  0.30,
		PCloudMissedByCensys: 0.115,
		PBGPFiltersActive:    0.11,
		PBGPMissedByCensys:   0.045,

		PServerV6:     0.055,
		PServerV6Only: 0.015,

		PMultiSSHOneV6:  0.10,
		PMultiSSHManyV6: 0.06,

		PSNMPRouterV6:     0.045,
		PSNMPRouterV6One:  0.20,
		SNMPV6OnlySingles: 350,

		PBGPMultiV6:           0.50,
		BGPV6OnlyMultiRouters: 5,
		BGPV6OnlySingles:      28,

		PSNMPRouterSSH: 0.024,
		PBGPRouterSNMP: 0.30,
		PBGPRouterSSH:  0.40,

		PSharedSSHKey:         0.030,
		PSSHPerIfaceVariation: 0.004,
		PDuplicateBGPID:       0.02,
		PCloneSSHKeyOverlap:   0.04,

		PSSHAcl:  0.10,
		PSNMPAcl: 0.15,

		HitlistCoverage: 0.75,
		DecoyFraction:   0.15,
		PBrokenSSH:      0.004,
	}
}

// scaled applies Scale to a base count, keeping at least min.
func (c Config) scaled(base int, min int) int {
	n := int(float64(base)*c.Scale + 0.5)
	if n < min {
		n = min
	}
	return n
}
