package snmpv3

import (
	"fmt"
)

// Version3 is the msgVersion value for SNMPv3.
const Version3 = 3

// SecurityModelUSM identifies the user-based security model (RFC 3414).
const SecurityModelUSM = 3

// FlagReportable asks the receiver to send Report PDUs on failure; it is the
// only flag a discovery probe sets (no auth, no priv).
const FlagReportable = 0x04

// DefaultMaxSize is the msgMaxSize a scanner advertises (maximum UDP payload).
const DefaultMaxSize = 65507

// OIDUsmStatsUnknownEngineIDs is 1.3.6.1.6.3.15.1.1.4.0, the counter an agent
// reports when it receives a request for an engine ID it does not know —
// which is exactly what a discovery probe provokes.
var OIDUsmStatsUnknownEngineIDs = []uint32{1, 3, 6, 1, 6, 3, 15, 1, 1, 4, 0}

// VarBind is one variable binding: an OID and an already-encoded value TLV.
type VarBind struct {
	// OID is the object identifier.
	OID []uint32
	// ValueTag is the BER tag of the value (tagNull, tagCounter32, ...).
	ValueTag byte
	// Value is the raw value body.
	Value []byte
}

// Counter returns the varbind's value as a Counter32, if it is one.
func (v VarBind) Counter() (uint32, bool) {
	if v.ValueTag != tagCounter32 {
		return 0, false
	}
	n, err := parseInt(v.Value)
	if err != nil || n > 0xffffffff {
		return 0, false
	}
	return uint32(n), true
}

// Message is a decoded SNMPv3 message, restricted to the unauthenticated
// plaintext form that engine discovery uses.
type Message struct {
	// MsgID correlates request and response.
	MsgID int64
	// MaxSize is the sender's advertised maximum message size.
	MaxSize int64
	// Flags is the msgFlags byte.
	Flags byte
	// SecurityModel is SecurityModelUSM in every message we handle.
	SecurityModel int64

	// EngineID is msgAuthoritativeEngineID: empty in a discovery request,
	// and the device's unique engine identifier in the Report reply.
	EngineID []byte
	// EngineBoots and EngineTime are the USM clock fields.
	EngineBoots int64
	// EngineTime is the seconds since the engine last rebooted.
	EngineTime int64
	// UserName is the USM user, empty for discovery.
	UserName []byte

	// ContextEngineID and ContextName scope the PDU.
	ContextEngineID []byte
	// ContextName is usually empty.
	ContextName []byte

	// PDUType is tagGetRequest, tagResponse, or tagReport.
	PDUType byte
	// RequestID is the PDU request identifier.
	RequestID int64
	// ErrorStatus and ErrorIndex are the PDU error fields.
	ErrorStatus int64
	// ErrorIndex is the index of the offending varbind, if any.
	ErrorIndex int64
	// VarBinds is the variable-binding list.
	VarBinds []VarBind
}

// IsReport reports whether the message carries a Report PDU.
func (m *Message) IsReport() bool { return m.PDUType == tagReport }

// UnknownEngineIDsCounter extracts the usmStatsUnknownEngineIDs counter from
// a Report, the signature of a successful discovery exchange.
func (m *Message) UnknownEngineIDsCounter() (uint32, bool) {
	for _, vb := range m.VarBinds {
		if oidEqual(vb.OID, OIDUsmStatsUnknownEngineIDs) {
			return vb.Counter()
		}
	}
	return 0, false
}

// Marshal encodes the message.
func (m *Message) Marshal() []byte {
	// USM security parameters, themselves a BER SEQUENCE wrapped in an
	// OCTET STRING.
	var usm []byte
	usm = appendTLV(usm, tagOctetString, m.EngineID)
	usm = appendInt(usm, tagInteger, m.EngineBoots)
	usm = appendInt(usm, tagInteger, m.EngineTime)
	usm = appendTLV(usm, tagOctetString, m.UserName)
	usm = appendTLV(usm, tagOctetString, nil) // msgAuthenticationParameters
	usm = appendTLV(usm, tagOctetString, nil) // msgPrivacyParameters
	usmSeq := appendTLV(nil, tagSequence, usm)

	// PDU.
	var pdu []byte
	pdu = appendInt(pdu, tagInteger, m.RequestID)
	pdu = appendInt(pdu, tagInteger, m.ErrorStatus)
	pdu = appendInt(pdu, tagInteger, m.ErrorIndex)
	var vbs []byte
	for _, vb := range m.VarBinds {
		var one []byte
		one = appendOID(one, vb.OID)
		one = appendTLV(one, vb.ValueTag, vb.Value)
		vbs = appendTLV(vbs, tagSequence, one)
	}
	pdu = appendTLV(pdu, tagSequence, vbs)

	// Plaintext ScopedPDU.
	var scoped []byte
	scoped = appendTLV(scoped, tagOctetString, m.ContextEngineID)
	scoped = appendTLV(scoped, tagOctetString, m.ContextName)
	scoped = appendTLV(scoped, m.PDUType, pdu)

	// Global header.
	var global []byte
	global = appendInt(global, tagInteger, m.MsgID)
	global = appendInt(global, tagInteger, m.MaxSize)
	global = appendTLV(global, tagOctetString, []byte{m.Flags})
	global = appendInt(global, tagInteger, m.SecurityModel)

	var body []byte
	body = appendInt(body, tagInteger, Version3)
	body = appendTLV(body, tagSequence, global)
	body = appendTLV(body, tagOctetString, usmSeq)
	body = appendTLV(body, tagSequence, scoped)
	return appendTLV(nil, tagSequence, body)
}

// Parse decodes an SNMPv3 message in the unauthenticated plaintext form.
func Parse(b []byte) (*Message, error) {
	body, rest, err := expectTLV(b, tagSequence)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: outer sequence: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadValue, len(rest))
	}

	verBody, body, err := expectTLV(body, tagInteger)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: version: %w", err)
	}
	ver, err := parseInt(verBody)
	if err != nil {
		return nil, err
	}
	if ver != Version3 {
		return nil, fmt.Errorf("%w: version %d", ErrBadValue, ver)
	}

	var m Message
	global, body, err := expectTLV(body, tagSequence)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: global header: %w", err)
	}
	if m.MsgID, global, err = readIntField(global); err != nil {
		return nil, fmt.Errorf("snmpv3: msgID: %w", err)
	}
	if m.MaxSize, global, err = readIntField(global); err != nil {
		return nil, fmt.Errorf("snmpv3: msgMaxSize: %w", err)
	}
	flags, global, err := expectTLV(global, tagOctetString)
	if err != nil || len(flags) != 1 {
		return nil, fmt.Errorf("snmpv3: msgFlags: %w", errOr(err, ErrBadValue))
	}
	m.Flags = flags[0]
	if m.SecurityModel, _, err = readIntField(global); err != nil {
		return nil, fmt.Errorf("snmpv3: msgSecurityModel: %w", err)
	}

	usmWrap, body, err := expectTLV(body, tagOctetString)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: security parameters: %w", err)
	}
	usm, _, err := expectTLV(usmWrap, tagSequence)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: USM sequence: %w", err)
	}
	engID, usm, err := expectTLV(usm, tagOctetString)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: engine ID: %w", err)
	}
	m.EngineID = append([]byte(nil), engID...)
	if m.EngineBoots, usm, err = readIntField(usm); err != nil {
		return nil, fmt.Errorf("snmpv3: engine boots: %w", err)
	}
	if m.EngineTime, usm, err = readIntField(usm); err != nil {
		return nil, fmt.Errorf("snmpv3: engine time: %w", err)
	}
	user, usm, err := expectTLV(usm, tagOctetString)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: user name: %w", err)
	}
	m.UserName = append([]byte(nil), user...)
	// The authentication and privacy parameters close the USM sequence (RFC
	// 3414 §2.4). Discovery sends both empty and nothing here reads them,
	// but Marshal always writes them: a message without them would
	// re-encode longer than it arrived, past the 2-byte BER length near
	// 64 KiB.
	if _, usm, err = expectTLV(usm, tagOctetString); err != nil {
		return nil, fmt.Errorf("snmpv3: authentication parameters: %w", err)
	}
	if _, _, err = expectTLV(usm, tagOctetString); err != nil {
		return nil, fmt.Errorf("snmpv3: privacy parameters: %w", err)
	}

	scoped, _, err := expectTLV(body, tagSequence)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: scoped PDU: %w", err)
	}
	ctxEng, scoped, err := expectTLV(scoped, tagOctetString)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: context engine ID: %w", err)
	}
	m.ContextEngineID = append([]byte(nil), ctxEng...)
	ctxName, scoped, err := expectTLV(scoped, tagOctetString)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: context name: %w", err)
	}
	m.ContextName = append([]byte(nil), ctxName...)

	pduTag, pdu, _, err := readTLV(scoped)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: PDU: %w", err)
	}
	switch pduTag {
	case tagGetRequest, tagResponse, tagReport:
		m.PDUType = pduTag
	default:
		return nil, fmt.Errorf("%w: PDU tag %#x", ErrBadTag, pduTag)
	}
	if m.RequestID, pdu, err = readIntField(pdu); err != nil {
		return nil, fmt.Errorf("snmpv3: request-id: %w", err)
	}
	if m.ErrorStatus, pdu, err = readIntField(pdu); err != nil {
		return nil, fmt.Errorf("snmpv3: error-status: %w", err)
	}
	if m.ErrorIndex, pdu, err = readIntField(pdu); err != nil {
		return nil, fmt.Errorf("snmpv3: error-index: %w", err)
	}
	vbs, _, err := expectTLV(pdu, tagSequence)
	if err != nil {
		return nil, fmt.Errorf("snmpv3: varbind list: %w", err)
	}
	for len(vbs) > 0 {
		var one []byte
		one, vbs, err = expectTLV(vbs, tagSequence)
		if err != nil {
			return nil, fmt.Errorf("snmpv3: varbind: %w", err)
		}
		oidBody, one, err := expectTLV(one, tagOID)
		if err != nil {
			return nil, fmt.Errorf("snmpv3: varbind OID: %w", err)
		}
		oid, err := parseOID(oidBody)
		if err != nil {
			return nil, err
		}
		vtag, vbody, _, err := readTLV(one)
		if err != nil {
			return nil, fmt.Errorf("snmpv3: varbind value: %w", err)
		}
		m.VarBinds = append(m.VarBinds, VarBind{
			OID: oid, ValueTag: vtag, Value: append([]byte(nil), vbody...),
		})
	}
	return &m, nil
}

// readIntField decodes an INTEGER TLV from the front of b.
func readIntField(b []byte) (int64, []byte, error) {
	body, rest, err := expectTLV(b, tagInteger)
	if err != nil {
		return 0, nil, err
	}
	v, err := parseInt(body)
	if err != nil {
		return 0, nil, err
	}
	return v, rest, nil
}

// errOr returns err if non-nil, else fallback.
func errOr(err, fallback error) error {
	if err != nil {
		return err
	}
	return fallback
}

// NewDiscoveryRequest builds the engine-discovery probe: an unauthenticated
// GetRequest with empty engine ID and the reportable flag set.
func NewDiscoveryRequest(msgID, requestID int64) *Message {
	return &Message{
		MsgID:         msgID,
		MaxSize:       DefaultMaxSize,
		Flags:         FlagReportable,
		SecurityModel: SecurityModelUSM,
		PDUType:       tagGetRequest,
		RequestID:     requestID,
	}
}
