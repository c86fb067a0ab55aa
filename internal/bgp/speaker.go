package bgp

import (
	"net"
	"time"

	"aliaslimit/internal/netsim"
)

// Behavior selects how a simulated BGP speaker treats an unconfigured peer,
// mirroring the two populations the paper measures on TCP/179.
type Behavior int

const (
	// BehaviorSilentClose closes immediately after the TCP handshake. The
	// paper finds more than 5.8M such speakers; they are responsive but
	// yield no identifier.
	BehaviorSilentClose Behavior = iota
	// BehaviorOpenNotify sends an OPEN followed by a NOTIFICATION
	// (Cease/Connection Rejected) and closes — the 364k identifiable
	// speakers of the paper's measurement, matching its Figure 2.
	BehaviorOpenNotify
	// BehaviorOpenOnly sends an OPEN and waits for the peer, closing after
	// a short hold; a less common but observed configuration.
	BehaviorOpenOnly
)

// String returns the behaviour name.
func (b Behavior) String() string {
	switch b {
	case BehaviorSilentClose:
		return "silent-close"
	case BehaviorOpenNotify:
		return "open-notify"
	case BehaviorOpenOnly:
		return "open-only"
	default:
		return "unknown"
	}
}

// SpeakerConfig describes one device's BGP personality. All fields that feed
// the OPEN message are host-wide: RFC 4271 requires the BGP identifier to be
// the same on every local interface, which is the property the paper's alias
// inference rests on.
type SpeakerConfig struct {
	// ASN is the speaker's autonomous system number. Values above 65535 are
	// announced via a 4-octet-AS capability with AS_TRANS in My-AS.
	ASN uint32
	// RouterID is the 4-octet BGP identifier.
	RouterID uint32
	// HoldTime is the proposed hold time in seconds.
	HoldTime uint16
	// Behavior selects the reaction to unconfigured peers.
	Behavior Behavior
	// CiscoRouteRefresh adds the pre-standard capability 128 alongside the
	// standard route-refresh, as Cisco speakers do.
	CiscoRouteRefresh bool
	// MPIPv6 advertises the IPv6 unicast multiprotocol capability.
	MPIPv6 bool
	// OneParamPerCapability packs each capability in its own optional
	// parameter (the packing seen in the paper's Figure 2) instead of one
	// parameter holding all capabilities. The packing is part of the wire
	// image and therefore of the identifier.
	OneParamPerCapability bool
}

// buildOpen renders the speaker's OPEN message.
func (c SpeakerConfig) buildOpen() *Open {
	o := &Open{
		Version:       Version4,
		HoldTime:      c.HoldTime,
		BGPIdentifier: c.RouterID,
	}
	var caps []Capability
	if c.CiscoRouteRefresh {
		caps = append(caps, Capability{Code: CapRouteRefreshCisco})
	}
	caps = append(caps, Capability{Code: CapRouteRefresh})
	if c.MPIPv6 {
		caps = append(caps, NewMultiprotocol(AFIIPv6, SAFIUnicast))
	}
	if c.ASN > 0xffff {
		o.MyAS = ASTrans
		caps = append(caps, NewFourOctetAS(c.ASN))
	} else {
		o.MyAS = uint16(c.ASN)
	}
	if c.OneParamPerCapability {
		for _, cp := range caps {
			o.OptParams = append(o.OptParams, OptParam{
				Type:         OptParamCapability,
				Capabilities: []Capability{cp},
			})
		}
	} else {
		o.OptParams = []OptParam{{Type: OptParamCapability, Capabilities: caps}}
	}
	return o
}

// Speaker is a netsim service handler implementing the configured behaviour.
type Speaker struct {
	cfg SpeakerConfig
}

// NewSpeaker returns a handler for cfg.
func NewSpeaker(cfg SpeakerConfig) *Speaker {
	return &Speaker{cfg: cfg}
}

// Serve implements netsim.Handler.
func (s *Speaker) Serve(conn net.Conn, sc netsim.ServeContext) {
	defer conn.Close()
	switch s.cfg.Behavior {
	case BehaviorSilentClose:
		return
	case BehaviorOpenNotify, BehaviorOpenOnly:
		open, err := s.cfg.buildOpen().MarshalBinary()
		if err != nil {
			return
		}
		if _, err := conn.Write(open); err != nil {
			return
		}
		if s.cfg.Behavior == BehaviorOpenNotify {
			notif, err := (&Notification{Code: NotifCease, Subcode: CeaseConnectionRejected}).MarshalBinary()
			if err != nil {
				return
			}
			_, _ = conn.Write(notif)
			return
		}
		// BehaviorOpenOnly: linger briefly waiting for the peer's OPEN,
		// then give up. The deadline keeps simulated scans fast.
		_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		buf := make([]byte, 256)
		_, _ = conn.Read(buf)
	}
}
