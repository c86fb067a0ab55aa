package netsim

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"
)

// DeviceKind is a coarse device category. It only influences reporting and
// topology statistics, never fabric behaviour.
type DeviceKind int

const (
	// KindRouter is a multi-interface network device (the alias-resolution
	// target population).
	KindRouter DeviceKind = iota
	// KindServer is an end host, typically a cloud VM with one IPv4 and
	// possibly one IPv6 address running SSH.
	KindServer
)

// String returns the kind name.
func (k DeviceKind) String() string {
	switch k {
	case KindRouter:
		return "router"
	case KindServer:
		return "server"
	default:
		return "unknown"
	}
}

// ServeContext carries per-connection metadata into a service handler. The
// paper's identifiers may legitimately vary by interface (0.4% of
// non-singleton SSH hosts announce different capabilities on different
// addresses), so handlers always learn which local address was hit.
type ServeContext struct {
	// Device is the device that accepted the connection.
	Device *Device
	// LocalAddr is the interface address the client connected to.
	LocalAddr netip.Addr
	// LocalPort is the service port.
	LocalPort uint16
	// Clock is the fabric clock, for handlers that model timeouts.
	Clock Clock
}

// Handler serves a single accepted connection. Implementations must close
// conn before returning, or rely on the fabric's deferred close.
type Handler interface {
	Serve(conn net.Conn, sc ServeContext)
}

// aclSet is a dense address ACL: the allowed addresses, sorted and deduped
// for binary search. A nil set means unrestricted. Megascale worlds carry one
// ACL per restricted service on hundreds of thousands of devices, so this is
// a flat sorted slice rather than a hash map — half the memory, no per-entry
// allocation, cache-friendly membership tests.
type aclSet []netip.Addr

// newACLSet builds an ACL from an address list; empty lists mean
// unrestricted (nil).
func newACLSet(addrs []netip.Addr) aclSet {
	if len(addrs) == 0 {
		return nil
	}
	s := make(aclSet, len(addrs))
	copy(s, addrs)
	slices.SortFunc(s, netip.Addr.Compare)
	return slices.Compact(s)
}

// has reports whether a is in the set.
func (s aclSet) has(a netip.Addr) bool {
	_, ok := slices.BinarySearchFunc(s, a, netip.Addr.Compare)
	return ok
}

// serviceEntry is one TCP service bound on a device, optionally restricted to
// a subset of the device's addresses (the paper's "service configured to
// respond only on selected addresses" ACL case).
type serviceEntry struct {
	handler Handler
	// allowed is nil when the service answers on every interface; otherwise
	// it is the set of addresses that accept connections. Probes to other
	// addresses are dropped (firewalled), not refused: that is what an ACL
	// on a router does.
	allowed aclSet
}

// boundService pairs a port with its service entry. Devices bind at most a
// handful of ports, so the service table is a flat slice scanned linearly —
// no per-device map allocation.
type boundService struct {
	port uint16
	e    *serviceEntry
}

// DeviceConfig describes a device to construct.
type DeviceConfig struct {
	// ID is a unique, stable identifier (used to key deterministic draws).
	ID string
	// ASN is the autonomous system the device belongs to. Interfaces may
	// individually override this for inter-AS links; see AddrASN.
	ASN uint32
	// Kind is the device category.
	Kind DeviceKind
	// Addrs lists every interface address, IPv4 and IPv6, in interface
	// order. Index in this slice is the interface index.
	Addrs []netip.Addr
	// AddrASN optionally maps specific addresses to a different origin AS
	// than the device's own. Border-router link addresses are commonly
	// numbered from the neighbour's space, which is why the paper finds
	// >35% of BGP-derived alias sets spanning multiple ASes.
	AddrASN map[netip.Addr]uint32
	// IPID selects the IP identification counter behaviour.
	IPID IPIDModel
	// IPIDVelocity is background traffic in packets/second feeding the
	// shared counter (only meaningful for the shared models).
	IPIDVelocity float64
	// IPIDSeed seeds the counter and the random model.
	IPIDSeed uint64
	// Pingable reports whether IPID probes (ICMP echo) are answered.
	Pingable bool
	// RespondsFromProbed, when true, makes ICMP errors originate from the
	// probed address, which defeats the common-source-address technique.
	RespondsFromProbed bool
	// ICMPSilent suppresses all ICMP error generation.
	ICMPSilent bool
	// EmitsFragmentIDs reports whether the device answers Speedtrap-style
	// probes with fragmented IPv6 packets carrying identification values.
	EmitsFragmentIDs bool
	// FilteredVantages lists vantage labels whose probes this device's
	// upstream IDS/rate-limiter drops. The paper attributes Censys's higher
	// SSH coverage to distributed scanning that avoids exactly this.
	FilteredVantages []string
}

// Device is one simulated network element with one or more addressed
// interfaces and zero or more TCP services.
//
// Concurrency contract: identity, addresses, and probe-behaviour flags are
// immutable after NewDevice; the probe/dial/sample paths used by concurrent
// scans are safe without external locking (service tables are RWMutex-
// guarded, IPID state is mutex-guarded). Topology mutation — SetService,
// SetUDPService, and fabric Bind/Unbind — is safe in itself but must not run
// concurrently with a measurement that expects a stable world: churn between
// scans, never during one.
type Device struct {
	id       string
	asn      uint32
	kind     DeviceKind
	addrs    []netip.Addr
	pingable bool

	// ifSorted/ifOrder are the interface lookup arena: the addresses sorted
	// for binary search, each paired with its index into addrs. Replaces the
	// per-device map[netip.Addr]int — built once, never mutated.
	ifSorted []netip.Addr
	ifOrder  []int32

	// addrASN is nil for the overwhelming majority of devices whose
	// interfaces all originate from the device's own AS.
	addrASN map[netip.Addr]uint32

	respondsFromProbed bool
	icmpSilent         bool
	fragEmitter        bool

	ipidModel IPIDModel
	ipid      *ipidState

	// filteredVantages lists the vantage labels whose probes are dropped —
	// at most a few entries, scanned linearly.
	filteredVantages []string

	mu       sync.RWMutex
	services []boundService

	udp udpServices
}

// NewDevice constructs a device. origin positions the IPID clock; pass the
// fabric clock's current time.
func NewDevice(cfg DeviceConfig, origin time.Time) (*Device, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("netsim: device must have an ID")
	}
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("netsim: device %s has no addresses", cfg.ID)
	}
	d := &Device{
		id:                 cfg.ID,
		asn:                cfg.ASN,
		kind:               cfg.Kind,
		addrs:              append([]netip.Addr(nil), cfg.Addrs...),
		pingable:           cfg.Pingable,
		respondsFromProbed: cfg.RespondsFromProbed,
		icmpSilent:         cfg.ICMPSilent,
		fragEmitter:        cfg.EmitsFragmentIDs,
		ipidModel:          cfg.IPID,
		ipid:               newIPIDState(cfg.IPIDSeed, cfg.IPIDVelocity, origin),
	}
	for i, a := range d.addrs {
		if !a.IsValid() {
			return nil, fmt.Errorf("netsim: device %s address %d invalid", cfg.ID, i)
		}
	}
	// Interface lookup arena: one sort at construction instead of a hash map
	// held for the device's lifetime.
	d.ifOrder = make([]int32, len(d.addrs))
	for i := range d.ifOrder {
		d.ifOrder[i] = int32(i)
	}
	slices.SortFunc(d.ifOrder, func(x, y int32) int { return d.addrs[x].Compare(d.addrs[y]) })
	d.ifSorted = make([]netip.Addr, len(d.addrs))
	for i, p := range d.ifOrder {
		d.ifSorted[i] = d.addrs[p]
	}
	for i := 1; i < len(d.ifSorted); i++ {
		if d.ifSorted[i] == d.ifSorted[i-1] {
			return nil, fmt.Errorf("netsim: device %s duplicate address %s", cfg.ID, d.ifSorted[i])
		}
	}
	if len(cfg.AddrASN) > 0 {
		d.addrASN = make(map[netip.Addr]uint32, len(cfg.AddrASN))
		for a, asn := range cfg.AddrASN {
			d.addrASN[a] = asn
		}
	}
	if len(cfg.FilteredVantages) > 0 {
		d.filteredVantages = append([]string(nil), cfg.FilteredVantages...)
	}
	return d, nil
}

// ifIndexOf returns the interface index of a, or ok=false when a is not one
// of the device's addresses.
func (d *Device) ifIndexOf(a netip.Addr) (int, bool) {
	i, ok := slices.BinarySearchFunc(d.ifSorted, a, netip.Addr.Compare)
	if !ok {
		return 0, false
	}
	return int(d.ifOrder[i]), true
}

// vantageFiltered reports whether the device's upstream drops this vantage's
// probes.
func (d *Device) vantageFiltered(v string) bool {
	for _, f := range d.filteredVantages {
		if f == v {
			return true
		}
	}
	return false
}

// service returns the entry bound on port, or nil. Caller holds d.mu.
func (d *Device) service(port uint16) *serviceEntry {
	for _, b := range d.services {
		if b.port == port {
			return b.e
		}
	}
	return nil
}

// ID returns the device's unique identifier.
func (d *Device) ID() string { return d.id }

// Kind returns the device category.
func (d *Device) Kind() DeviceKind { return d.kind }

// Addrs returns the device's interface addresses in interface order. The
// returned slice must not be modified.
func (d *Device) Addrs() []netip.Addr { return d.addrs }

// AddrASN returns the origin AS of a specific interface address, falling back
// to the device ASN for addresses without an override.
func (d *Device) AddrASN(a netip.Addr) uint32 {
	if asn, ok := d.addrASN[a]; ok {
		return asn
	}
	return d.asn
}

// HasAddr reports whether a is one of the device's interfaces.
func (d *Device) HasAddr(a netip.Addr) bool {
	_, ok := d.ifIndexOf(a)
	return ok
}

// SetService binds handler on port. If addrs is non-empty, only those
// addresses accept connections for the service; probes to the service on any
// other interface are silently dropped (ACL semantics). Re-binding a port
// replaces the previous service.
func (d *Device) SetService(port uint16, h Handler, addrs ...netip.Addr) {
	e := &serviceEntry{handler: h, allowed: newACLSet(addrs)}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, b := range d.services {
		if b.port == port {
			d.services[i].e = e
			return
		}
	}
	d.services = append(d.services, boundService{port: port, e: e})
}

// ServiceAddrs returns the addresses on which the service bound to port
// answers (the ACL view), or all device addresses when unrestricted, or nil
// when the port has no service.
func (d *Device) ServiceAddrs(port uint16) []netip.Addr {
	d.mu.RLock()
	e := d.service(port)
	d.mu.RUnlock()
	if e == nil {
		return nil
	}
	if e.allowed == nil {
		return d.addrs
	}
	out := make([]netip.Addr, 0, len(e.allowed))
	for _, a := range d.addrs { // preserve interface order
		if e.allowed.has(a) {
			out = append(out, a)
		}
	}
	return out
}

// probeStatus classifies how the device treats a TCP SYN to (addr, port) from
// the given vantage.
func (d *Device) probeStatus(vantage string, addr netip.Addr, port uint16) ProbeStatus {
	if d.vantageFiltered(vantage) {
		return StatusFiltered
	}
	d.mu.RLock()
	e := d.service(port)
	d.mu.RUnlock()
	if e == nil {
		return StatusClosed
	}
	if e.allowed != nil && !e.allowed.has(addr) {
		return StatusFiltered
	}
	return StatusOpen
}

// handlerFor returns the handler serving (addr, port), or nil when the probe
// would not complete a handshake.
func (d *Device) handlerFor(vantage string, addr netip.Addr, port uint16) Handler {
	if d.probeStatus(vantage, addr, port) != StatusOpen {
		return nil
	}
	d.mu.RLock()
	e := d.service(port)
	d.mu.RUnlock()
	if e == nil {
		return nil
	}
	return e.handler
}

// sampleIPID answers an IPID probe against addr at the given time, or false
// if the device does not respond to such probes. A non-nil policy overrides
// the device's own IPID model (the fabric's fault-injection hook).
func (d *Device) sampleIPID(vantage string, addr netip.Addr, now time.Time, policy *IPIDModel) (uint16, bool) {
	if !d.pingable || d.vantageFiltered(vantage) {
		return 0, false
	}
	idx, ok := d.ifIndexOf(addr)
	if !ok {
		return 0, false
	}
	model := d.ipidModel
	if policy != nil {
		model = *policy
	}
	return uint16(d.ipid.sample(model, idx, 7919, now)), true
}

// icmpSource answers an iffinder-style UDP probe to a closed port: the
// address the resulting ICMP port-unreachable claims as source, or ok=false
// when the device stays silent.
func (d *Device) icmpSource(vantage string, probed netip.Addr) (netip.Addr, bool) {
	if d.icmpSilent || d.vantageFiltered(vantage) {
		return netip.Addr{}, false
	}
	if _, ok := d.ifIndexOf(probed); !ok {
		return netip.Addr{}, false
	}
	if d.respondsFromProbed {
		return probed, true
	}
	// ICMP errors are sourced from the canonical interface of the matching
	// address family.
	for _, a := range d.addrs {
		if a.Is4() == probed.Is4() {
			return a, true
		}
	}
	return d.addrs[0], true
}
