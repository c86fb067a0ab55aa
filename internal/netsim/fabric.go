// Package netsim implements an in-memory Internet: devices with addressed
// interfaces, TCP services reachable through net.Conn pipes, and the probe
// primitives (SYN, ICMP echo for IPID, UDP-to-closed-port) that the
// measurement tools in this repository build on.
//
// The fabric replaces the real Internet that the paper scans. Every scanner
// in this repository talks to it through the same Dialer interface it would
// use against real targets, so the application-layer code paths — TCP
// handshakes, SSH key exchanges, BGP OPEN parsing — are identical; only the
// transport is simulated.
package netsim

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ProbeStatus classifies a TCP SYN probe outcome.
type ProbeStatus int

const (
	// StatusFiltered means no answer: unrouted address, firewall drop, or
	// IDS suppression of the scanning vantage.
	StatusFiltered ProbeStatus = iota
	// StatusClosed means an RST came back: host alive, port closed.
	StatusClosed
	// StatusOpen means SYN-ACK: a service is listening.
	StatusOpen
)

// String returns the probe status name.
func (s ProbeStatus) String() string {
	switch s {
	case StatusFiltered:
		return "filtered"
	case StatusClosed:
		return "closed"
	case StatusOpen:
		return "open"
	default:
		return "invalid"
	}
}

// Common error values returned by fabric dials. Both satisfy net.Error so
// that scanner code written for real sockets handles them naturally.
var (
	// ErrFiltered is returned when a dial would never complete: the SYN is
	// dropped and, on a real network, the dialer would wait out its timeout.
	ErrFiltered = &dialError{msg: "connect: no route or filtered", timeout: true}
	// ErrRefused is returned when the target answers with RST.
	ErrRefused = &dialError{msg: "connect: connection refused"}
)

// dialError is a net.Error with a configurable timeout flag.
type dialError struct {
	msg     string
	timeout bool
}

func (e *dialError) Error() string   { return e.msg }
func (e *dialError) Timeout() bool   { return e.timeout }
func (e *dialError) Temporary() bool { return false }

// Fabric is the simulated Internet: a binding of interface addresses to
// devices plus the probe and dial machinery. All methods are safe for
// concurrent use: every worker of every scan pool calls in at once.
type Fabric struct {
	clock Clock

	mu   sync.RWMutex
	bind map[netip.Addr]*Device
	// devices holds every device ever added, keyed by ID, including devices
	// whose addresses are currently churned out.
	devices map[string]*Device
	// faults is the installed adversarial-condition policy (nil when
	// fault-free, so hot probe paths pay one atomic load); see faults.go.
	faults atomic.Pointer[Faults]
}

// New returns an empty fabric driven by clock.
func New(clock Clock) *Fabric {
	if clock == nil {
		clock = RealClock{}
	}
	return &Fabric{
		clock:   clock,
		bind:    make(map[netip.Addr]*Device),
		devices: make(map[string]*Device),
	}
}

// AddDevice registers the device and binds all of its interface addresses.
// It fails if any address is already bound to a different device.
func (f *Fabric) AddDevice(d *Device) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range d.Addrs() {
		if cur, ok := f.bind[a]; ok && cur != d {
			return fmt.Errorf("netsim: address %s already bound to device %s", a, cur.ID())
		}
	}
	for _, a := range d.Addrs() {
		f.bind[a] = d
	}
	f.devices[d.ID()] = d
	return nil
}

// Unbind removes the binding for addr, simulating address churn (the device
// keeps its other interfaces). Unbinding an unknown address is a no-op.
func (f *Fabric) Unbind(addr netip.Addr) {
	f.mu.Lock()
	delete(f.bind, addr)
	f.mu.Unlock()
}

// Bind points addr at the device with the given ID, replacing any previous
// binding. It is the churn counterpart of Unbind: an address freed by one
// customer gets reassigned to another.
func (f *Fabric) Bind(addr netip.Addr, deviceID string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.devices[deviceID]
	if !ok {
		return fmt.Errorf("netsim: unknown device %q", deviceID)
	}
	if !d.HasAddr(addr) {
		return fmt.Errorf("netsim: device %s does not own address %s", deviceID, addr)
	}
	f.bind[addr] = d
	return nil
}

// Lookup returns the device currently answering at addr, or nil.
func (f *Fabric) Lookup(addr netip.Addr) *Device {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.bind[addr]
}

// Device returns a registered device by ID, or nil.
func (f *Fabric) Device(id string) *Device {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.devices[id]
}

// NumDevices returns the number of registered devices.
func (f *Fabric) NumDevices() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.devices)
}

// Vantage returns a scanning viewpoint with the given label. Devices whose
// IDS filters that label silently drop its probes; this is how the simulation
// reproduces the coverage gap between a single research vantage point and
// Censys's distributed scanners.
func (f *Fabric) Vantage(label string) *Vantage {
	return &Vantage{fabric: f, label: label}
}

// Vantage is a labelled scanning viewpoint on a fabric. It satisfies the
// Dialer interface used by the service scanners.
//
// Concurrency contract: a Vantage is immutable after creation and every
// method is safe for concurrent use — the collection pipeline drives one
// Vantage from the workers of several protocol sweeps at once, as many as
// the caller's scan width asks for. Probe and dial paths only read fabric
// bindings (under the fabric's RWMutex) and immutable device configuration;
// the sole mutable state they touch is each device's lock-guarded IPID
// counter.
type Vantage struct {
	fabric *Fabric
	label  string
}

// SynProbe reports how a TCP SYN to addr:port from this vantage is answered.
// This is the zmaplite fast path: no connection state is created.
func (v *Vantage) SynProbe(addr netip.Addr, port uint16) ProbeStatus {
	if v.faultDrop(faultSYN, addr, port) {
		return StatusFiltered
	}
	d := v.fabric.Lookup(addr)
	if d == nil {
		return StatusFiltered
	}
	return d.probeStatus(v.label, addr, port)
}

// IPIDProbe elicits one IP identification sample from addr (conceptually an
// ICMP echo; MIDAR uses several probe methods, all of which sample the same
// counter). ok is false when the target does not answer.
func (v *Vantage) IPIDProbe(addr netip.Addr) (ipid uint16, ok bool) {
	if v.faultDrop(faultICMP, addr, 0) {
		return 0, false
	}
	d := v.fabric.Lookup(addr)
	if d == nil {
		return 0, false
	}
	return d.sampleIPID(v.label, addr, v.fabric.clock.Now(), v.ipidPolicy())
}

// UDPProbe sends a UDP datagram to a (presumed closed) port and reports the
// source address of the resulting ICMP port-unreachable, if any. This is the
// iffinder / common-source-address primitive.
func (v *Vantage) UDPProbe(addr netip.Addr, port uint16) (from netip.Addr, ok bool) {
	if v.faultDrop(faultUDP, addr, port) {
		return netip.Addr{}, false
	}
	d := v.fabric.Lookup(addr)
	if d == nil {
		return netip.Addr{}, false
	}
	// A UDP probe to a port with a TCP service still reaches a closed UDP
	// port; the ICMP behaviour is the device's alone.
	_ = port
	return d.icmpSource(v.label, addr)
}

// DialContext dials a TCP connection to address ("ip:port") through the
// fabric. It matches net.Dialer.DialContext's signature so scanners accept
// either. Filtered targets fail immediately with a net.Error whose Timeout()
// is true (the simulation does not make the caller wait out a real timer);
// closed ports fail with ErrRefused.
func (v *Vantage) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	switch network {
	case "tcp", "tcp4", "tcp6":
	default:
		return nil, fmt.Errorf("netsim: unsupported network %q", network)
	}
	host, portStr, err := net.SplitHostPort(address)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad address %q: %w", address, err)
	}
	addr, err := netip.ParseAddr(host)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad host %q: %w", host, err)
	}
	addr = addr.Unmap()
	p, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("netsim: bad port %q: %w", portStr, err)
	}
	port := uint16(p)

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Per-wire loss also eats the packets of a would-be handshake; the
	// throttle does not — rate limiters target probe floods, not the single
	// follow-up connection.
	if v.faultLost(faultDial, addr, port) {
		return nil, opError("dial", address, ErrFiltered)
	}

	d := v.fabric.Lookup(addr)
	if d == nil {
		return nil, opError("dial", address, ErrFiltered)
	}
	h := d.handlerFor(v.label, addr, port)
	if h == nil {
		switch d.probeStatus(v.label, addr, port) {
		case StatusClosed:
			return nil, opError("dial", address, ErrRefused)
		default:
			return nil, opError("dial", address, ErrFiltered)
		}
	}

	clientSide, serverSide := net.Pipe()
	local := &net.TCPAddr{IP: net.ParseIP("198.51.100.7"), Port: 54321}
	remote := &net.TCPAddr{IP: addr.AsSlice(), Port: int(port)}
	release := new(sync.Once)
	client := &simConn{Conn: clientSide, local: local, remote: remote, peer: serverSide, release: release}
	server := &simConn{Conn: serverSide, local: remote, remote: local, peer: clientSide, release: release}

	go func() {
		defer server.Close()
		h.Serve(server, ServeContext{
			Device:    d,
			LocalAddr: addr,
			LocalPort: port,
			Clock:     v.fabric.clock,
		})
	}()
	return client, nil
}

// opError wraps err in a *net.OpError like the real dialer does.
func opError(op, address string, err error) error {
	return &net.OpError{Op: op, Net: "tcp", Addr: strAddr(address), Err: err}
}

// strAddr is a minimal net.Addr for error reporting.
type strAddr string

func (a strAddr) Network() string { return "tcp" }
func (a strAddr) String() string  { return string(a) }

// simConn overrides the pipe's placeholder addresses with TCP-looking ones so
// protocol code that inspects LocalAddr/RemoteAddr behaves as on real sockets.
type simConn struct {
	net.Conn
	local, remote net.Addr
	// peer is the pipe's other end; release is shared by both ends.
	peer    net.Conn
	release *sync.Once
}

// Close clears both ends' deadlines on the first Close of either end, then
// closes. net.Pipe arms a timer per deadline that Close never stops, and
// once either end is closed SetDeadline refuses to clear it, so without this
// every dialed pair would stay reachable until its timers fire — minutes
// later for a grab timeout.
func (c *simConn) Close() error {
	c.release.Do(func() {
		c.Conn.SetDeadline(time.Time{})
		c.peer.SetDeadline(time.Time{})
	})
	return c.Conn.Close()
}

// LocalAddr returns the simulated local address.
func (c *simConn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the simulated remote address.
func (c *simConn) RemoteAddr() net.Addr { return c.remote }
