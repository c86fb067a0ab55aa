package zgrab

import (
	"net"
	"net/netip"
	"time"

	"aliaslimit/internal/bgp"
	"aliaslimit/internal/sshwire"
)

// SSHModule runs the sshwire client scan: banner, KEXINIT, one key exchange.
type SSHModule struct {
	// Timeout bounds the whole SSH exchange; zero picks sshwire's default.
	Timeout time.Duration
}

// Name implements Module.
func (m *SSHModule) Name() string { return "ssh" }

// DefaultPort implements Module: TCP/22, the only SSH port the paper's
// methodology considers (Censys's 60k non-standard-port findings are
// deliberately excluded).
func (m *SSHModule) DefaultPort() uint16 { return 22 }

// Scan implements Module.
func (m *SSHModule) Scan(conn net.Conn, target netip.Addr) (any, error) {
	res, err := sshwire.Scan(conn, sshwire.ScanConfig{Timeout: m.Timeout})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// BGPModule runs the passive BGP collection: complete the handshake, send
// nothing, record the unsolicited OPEN/NOTIFICATION.
type BGPModule struct {
	// Timeout is the wait-for-data window; zero picks the paper's 2s.
	Timeout time.Duration
}

// Name implements Module.
func (m *BGPModule) Name() string { return "bgp" }

// DefaultPort implements Module.
func (m *BGPModule) DefaultPort() uint16 { return 179 }

// Scan implements Module.
func (m *BGPModule) Scan(conn net.Conn, target netip.Addr) (any, error) {
	res, err := bgp.Scan(conn, m.Timeout)
	if err != nil {
		return nil, err
	}
	return res, nil
}
