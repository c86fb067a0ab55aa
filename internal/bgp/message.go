// Package bgp implements the subset of the Border Gateway Protocol (RFC 4271)
// that the paper's scanning methodology exercises: the message header, the
// OPEN message with RFC 5492 capability advertisement, and the NOTIFICATION
// message. That is all a scanner ever sees — the paper observes that BGP
// speakers send an unsolicited OPEN (and usually a Cease/Connection-Rejected
// NOTIFICATION) right after the TCP handshake, without the scanner sending a
// single byte.
//
// The codec follows the gopacket convention: value types with
// MarshalBinary/UnmarshalBinary pairs, strict validation on decode, and
// deterministic serialisation so identifiers derived from the wire image are
// stable.
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message type codes from RFC 4271 §4.1.
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Protocol constants.
const (
	// MarkerLen is the length of the all-ones marker field.
	MarkerLen = 16
	// HeaderLen is the fixed message header length (marker + length + type).
	HeaderLen = MarkerLen + 2 + 1
	// MaxMessageLen is the largest legal BGP message (RFC 4271 §4.1).
	MaxMessageLen = 4096
	// Version4 is the only deployed BGP version.
	Version4 = 4
	// ASTrans is the 2-octet AS number placeholder used by 4-octet-AS
	// speakers in the My-AS field (RFC 6793). The paper's Figure 2 shows a
	// speaker announcing exactly this value.
	ASTrans = 23456
)

// Errors returned by the decoder.
var (
	ErrShortMessage  = errors.New("bgp: message truncated")
	ErrBadMarker     = errors.New("bgp: marker is not all ones")
	ErrBadLength     = errors.New("bgp: header length field out of range")
	ErrUnknownType   = errors.New("bgp: unknown message type")
	ErrTrailingBytes = errors.New("bgp: trailing bytes after message body")
)

// Header is the fixed-size BGP message header.
type Header struct {
	// Length is the total message length including the header itself.
	Length uint16
	// Type is one of the Type* constants.
	Type uint8
}

// marshalHeader appends a wire-format header to dst.
func marshalHeader(dst []byte, bodyLen int, typ uint8) []byte {
	for i := 0; i < MarkerLen; i++ {
		dst = append(dst, 0xff)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(HeaderLen+bodyLen))
	return append(dst, typ)
}

// ParseHeader decodes and validates a message header from b.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, ErrShortMessage
	}
	for i := 0; i < MarkerLen; i++ {
		if b[i] != 0xff {
			return Header{}, ErrBadMarker
		}
	}
	h := Header{
		Length: binary.BigEndian.Uint16(b[MarkerLen:]),
		Type:   b[MarkerLen+2],
	}
	if h.Length < HeaderLen || h.Length > MaxMessageLen {
		return Header{}, ErrBadLength
	}
	if h.Type < TypeOpen || h.Type > TypeKeepalive {
		return Header{}, ErrUnknownType
	}
	return h, nil
}

// Open is a BGP OPEN message (RFC 4271 §4.2). Every field except the marker
// participates in the paper's BGP device identifier.
type Open struct {
	// Version is the protocol version, in practice always 4.
	Version uint8
	// MyAS is the 2-octet My-Autonomous-System field. Speakers with 4-octet
	// AS numbers put ASTrans here and the real ASN in a capability.
	MyAS uint16
	// HoldTime is the proposed hold time in seconds.
	HoldTime uint16
	// BGPIdentifier is the speaker's router ID: a 4-octet value that RFC
	// 4271 requires to be identical on every local interface — which is
	// exactly what makes it usable for alias resolution.
	BGPIdentifier uint32
	// OptParams carries the optional parameters, normally one or more
	// capability advertisements.
	OptParams []OptParam
}

// EffectiveAS returns the speaker's AS number, preferring a 4-octet-AS
// capability over the (possibly AS_TRANS) My-AS field.
func (o *Open) EffectiveAS() uint32 {
	for _, p := range o.OptParams {
		for _, c := range p.Capabilities {
			if c.Code == CapFourOctetAS && len(c.Value) == 4 {
				return binary.BigEndian.Uint32(c.Value)
			}
		}
	}
	return uint32(o.MyAS)
}

// MarshalBinary encodes the OPEN message, header included.
func (o *Open) MarshalBinary() ([]byte, error) {
	var body []byte
	body = append(body, o.Version)
	body = binary.BigEndian.AppendUint16(body, o.MyAS)
	body = binary.BigEndian.AppendUint16(body, o.HoldTime)
	body = binary.BigEndian.AppendUint32(body, o.BGPIdentifier)
	var opts []byte
	for i := range o.OptParams {
		enc, err := o.OptParams[i].marshal()
		if err != nil {
			return nil, err
		}
		opts = append(opts, enc...)
	}
	if len(opts) > 255 {
		return nil, fmt.Errorf("bgp: optional parameters too long (%d bytes)", len(opts))
	}
	body = append(body, uint8(len(opts)))
	body = append(body, opts...)
	out := marshalHeader(nil, len(body), TypeOpen)
	return append(out, body...), nil
}

// Notification is a BGP NOTIFICATION message (RFC 4271 §4.5).
type Notification struct {
	// Code is the major error code.
	Code uint8
	// Subcode is the error subcode; for Cease, RFC 4486 defines the values.
	Subcode uint8
	// Data is optional diagnostic data.
	Data []byte
}

// NOTIFICATION error codes and the Cease subcodes used by scanned speakers.
const (
	NotifCease = 6
	// CeaseConnectionRejected is what the paper's 364k identifiable BGP
	// speakers send right after their OPEN.
	CeaseConnectionRejected = 5
)

// MarshalBinary encodes the NOTIFICATION message, header included.
func (n *Notification) MarshalBinary() ([]byte, error) {
	body := append([]byte{n.Code, n.Subcode}, n.Data...)
	out := marshalHeader(nil, len(body), TypeNotification)
	return append(out, body...), nil
}

// parseNotification decodes a NOTIFICATION body.
func parseNotification(body []byte) (*Notification, error) {
	if len(body) < 2 {
		return nil, ErrShortMessage
	}
	n := &Notification{Code: body[0], Subcode: body[1]}
	if len(body) > 2 {
		n.Data = append([]byte(nil), body[2:]...)
	}
	return n, nil
}

// parseOpen decodes an OPEN body.
func parseOpen(body []byte) (*Open, error) {
	const fixed = 1 + 2 + 2 + 4 + 1
	if len(body) < fixed {
		return nil, ErrShortMessage
	}
	o := &Open{
		Version:       body[0],
		MyAS:          binary.BigEndian.Uint16(body[1:]),
		HoldTime:      binary.BigEndian.Uint16(body[3:]),
		BGPIdentifier: binary.BigEndian.Uint32(body[5:]),
	}
	optLen := int(body[9])
	rest := body[fixed:]
	if len(rest) != optLen {
		return nil, fmt.Errorf("bgp: optional parameter length %d but %d bytes present: %w",
			optLen, len(rest), ErrTrailingBytes)
	}
	for len(rest) > 0 {
		p, n, err := parseOptParam(rest)
		if err != nil {
			return nil, err
		}
		o.OptParams = append(o.OptParams, p)
		rest = rest[n:]
	}
	return o, nil
}

// Parse decodes one complete message from b and returns it along with the
// number of bytes consumed. The concrete type of the returned message is
// *Open, *Notification, or Keepalive. UPDATE messages are rejected: a scanner
// never negotiates a session far enough to receive one legitimately.
func Parse(b []byte) (msg any, n int, err error) {
	h, err := ParseHeader(b)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < int(h.Length) {
		return nil, 0, ErrShortMessage
	}
	body := b[HeaderLen:h.Length]
	switch h.Type {
	case TypeOpen:
		o, err := parseOpen(body)
		if err != nil {
			return nil, 0, err
		}
		return o, int(h.Length), nil
	case TypeNotification:
		nt, err := parseNotification(body)
		if err != nil {
			return nil, 0, err
		}
		return nt, int(h.Length), nil
	case TypeKeepalive:
		if len(body) != 0 {
			return nil, 0, ErrTrailingBytes
		}
		return Keepalive{}, int(h.Length), nil
	default:
		return nil, 0, fmt.Errorf("bgp: unexpected %d message from scanned speaker: %w",
			h.Type, ErrUnknownType)
	}
}

// Keepalive is a BGP KEEPALIVE message (header only).
type Keepalive struct{}

// MarshalBinary encodes the KEEPALIVE message.
func (Keepalive) MarshalBinary() ([]byte, error) {
	return marshalHeader(nil, 0, TypeKeepalive), nil
}
