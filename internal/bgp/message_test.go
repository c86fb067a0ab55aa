package bgp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// figure2Open reconstructs the OPEN message dissected in the paper's
// Figure 2: Length 37, Version 4, My-AS 23456 (AS_TRANS), Hold Time 90, BGP
// Identifier 148.170.0.33, and 8 bytes of optional parameters holding the
// Cisco route-refresh (128) and standard route-refresh (2) capabilities, one
// parameter per capability.
func figure2Open() *Open {
	return &Open{
		Version:       Version4,
		MyAS:          ASTrans,
		HoldTime:      90,
		BGPIdentifier: 0x94AA0021, // 148.170.0.33
		OptParams: []OptParam{
			{Type: OptParamCapability, Capabilities: []Capability{{Code: CapRouteRefreshCisco}}},
			{Type: OptParamCapability, Capabilities: []Capability{{Code: CapRouteRefresh}}},
		},
	}
}

func TestFigure2GoldenBytes(t *testing.T) {
	enc, err := figure2Open().MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if len(enc) != 37 {
		t.Errorf("wire length = %d, want 37 (the Length field in Figure 2)", len(enc))
	}
	want := []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // marker
		0x00, 0x25, // length 37
		0x01,       // OPEN
		0x04,       // version 4
		0x5b, 0xa0, // My AS 23456
		0x00, 0x5a, // hold time 90
		0x94, 0xaa, 0x00, 0x21, // BGP identifier 148.170.0.33
		0x08,                   // opt params length
		0x02, 0x02, 0x80, 0x00, // capability: route refresh (Cisco)
		0x02, 0x02, 0x02, 0x00, // capability: route refresh
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("wire image mismatch\n got %x\nwant %x", enc, want)
	}

	msg, n, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n != 37 {
		t.Errorf("Parse consumed %d, want 37", n)
	}
	o, ok := msg.(*Open)
	if !ok {
		t.Fatalf("Parse returned %T, want *Open", msg)
	}
	if want := uint32(148)<<24 | 170<<16 | 33; o.BGPIdentifier != want { // 148.170.0.33
		t.Errorf("BGPIdentifier = %#x, want %#x", o.BGPIdentifier, want)
	}
	if o.EffectiveAS() != ASTrans {
		t.Errorf("EffectiveAS = %d, want AS_TRANS (no 4-octet capability present)", o.EffectiveAS())
	}
	if len(o.OptParams) != 2 {
		t.Fatalf("OptParams = %d, want 2", len(o.OptParams))
	}
	if o.OptParams[0].Capabilities[0].Code != CapRouteRefreshCisco {
		t.Error("first capability should be Cisco route refresh")
	}
}

func TestFigure2Notification(t *testing.T) {
	n := &Notification{Code: NotifCease, Subcode: CeaseConnectionRejected}
	enc, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 21 {
		t.Errorf("NOTIFICATION length = %d, want 21 (Figure 2)", len(enc))
	}
	msg, consumed, err := Parse(enc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if consumed != 21 {
		t.Errorf("consumed %d, want 21", consumed)
	}
	got, ok := msg.(*Notification)
	if !ok {
		t.Fatalf("Parse returned %T", msg)
	}
	if got.Code != NotifCease || got.Subcode != CeaseConnectionRejected {
		t.Errorf("decoded %d/%d, want 6/5", got.Code, got.Subcode)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	valid, _ := (Keepalive{}).MarshalBinary()

	short := valid[:10]
	if _, err := ParseHeader(short); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short header: err = %v", err)
	}

	badMarker := append([]byte(nil), valid...)
	badMarker[3] = 0
	if _, err := ParseHeader(badMarker); !errors.Is(err, ErrBadMarker) {
		t.Errorf("bad marker: err = %v", err)
	}

	badLen := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(badLen[16:], 5) // < HeaderLen
	if _, err := ParseHeader(badLen); !errors.Is(err, ErrBadLength) {
		t.Errorf("length too small: err = %v", err)
	}
	binary.BigEndian.PutUint16(badLen[16:], MaxMessageLen+1)
	if _, err := ParseHeader(badLen); !errors.Is(err, ErrBadLength) {
		t.Errorf("length too large: err = %v", err)
	}

	badType := append([]byte(nil), valid...)
	badType[18] = 9
	if _, err := ParseHeader(badType); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: err = %v", err)
	}
}

func TestParseTruncatedAndMalformed(t *testing.T) {
	enc, _ := figure2Open().MarshalBinary()

	// Body shorter than the header's Length claim.
	if _, _, err := Parse(enc[:20]); !errors.Is(err, ErrShortMessage) {
		t.Errorf("truncated body: err = %v", err)
	}

	// Optional parameter length pointing past the body.
	bad := append([]byte(nil), enc...)
	bad[HeaderLen+9] = 20 // optLen > actual
	if _, _, err := Parse(bad); err == nil {
		t.Error("inflated opt-param length: want error")
	}

	// Truncated capability inside an otherwise intact parameter.
	bad2 := append([]byte(nil), enc...)
	bad2[HeaderLen+11] = 7 // capability claims 7 value bytes
	if _, _, err := Parse(bad2); err == nil {
		t.Error("truncated capability: want error")
	}

	// KEEPALIVE with a body is illegal.
	ka, _ := Keepalive{}.MarshalBinary()
	ka = append(ka, 0x00)
	binary.BigEndian.PutUint16(ka[16:], uint16(len(ka)))
	if _, _, err := Parse(ka); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("keepalive with body: err = %v", err)
	}

	// UPDATE messages are rejected by the scanner-side parser.
	upd := append([]byte(nil), ka[:HeaderLen]...)
	binary.BigEndian.PutUint16(upd[16:], HeaderLen)
	upd[18] = TypeUpdate
	if _, _, err := Parse(upd); !errors.Is(err, ErrUnknownType) {
		t.Errorf("update: err = %v", err)
	}

	// NOTIFICATION needs at least code+subcode.
	nshort := marshalHeader(nil, 1, TypeNotification)
	nshort = append(nshort, NotifCease)
	if _, _, err := Parse(nshort); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short notification: err = %v", err)
	}
}

func TestOpenRoundTripProperty(t *testing.T) {
	f := func(myAS, holdTime uint16, routerID uint32, asn4 uint32, cisco, mp6, perParam bool) bool {
		o := &Open{Version: Version4, MyAS: myAS, HoldTime: holdTime, BGPIdentifier: routerID}
		var caps []Capability
		if cisco {
			caps = append(caps, Capability{Code: CapRouteRefreshCisco})
		}
		caps = append(caps, Capability{Code: CapRouteRefresh}, NewFourOctetAS(asn4))
		if mp6 {
			caps = append(caps, NewMultiprotocol(AFIIPv6, SAFIUnicast))
		}
		if perParam {
			for _, c := range caps {
				o.OptParams = append(o.OptParams, OptParam{Type: OptParamCapability, Capabilities: []Capability{c}})
			}
		} else {
			o.OptParams = []OptParam{{Type: OptParamCapability, Capabilities: caps}}
		}
		enc, err := o.MarshalBinary()
		if err != nil {
			return false
		}
		msg, n, err := Parse(enc)
		if err != nil || n != len(enc) {
			return false
		}
		got, ok := msg.(*Open)
		if !ok {
			return false
		}
		reenc, err := got.MarshalBinary()
		if err != nil {
			return false
		}
		return bytes.Equal(enc, reenc) && got.EffectiveAS() == asn4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNotificationRoundTripProperty(t *testing.T) {
	f := func(code, subcode uint8, data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		n := &Notification{Code: code, Subcode: subcode, Data: data}
		enc, err := n.MarshalBinary()
		if err != nil {
			return false
		}
		msg, consumed, err := Parse(enc)
		if err != nil || consumed != len(enc) {
			return false
		}
		got, ok := msg.(*Notification)
		return ok && got.Code == code && got.Subcode == subcode && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEffectiveASPrefersCapability(t *testing.T) {
	o := &Open{
		Version: Version4, MyAS: ASTrans, HoldTime: 90, BGPIdentifier: 1,
		OptParams: []OptParam{{
			Type:         OptParamCapability,
			Capabilities: []Capability{NewFourOctetAS(396982)},
		}},
	}
	if got := o.EffectiveAS(); got != 396982 {
		t.Errorf("EffectiveAS = %d, want 396982", got)
	}
}

func TestCapabilityStrings(t *testing.T) {
	cases := []struct {
		c    Capability
		want string
	}{
		{Capability{Code: CapRouteRefresh}, "route-refresh"},
		{Capability{Code: CapRouteRefreshCisco}, "route-refresh-cisco"},
		{Capability{Code: CapGracefulRestart}, "graceful-restart"},
		{NewFourOctetAS(65550), "four-octet-as(65550)"},
		{NewMultiprotocol(AFIIPv6, SAFIUnicast), "multiprotocol(afi=2,safi=1)"},
		{Capability{Code: CapMultiprotocol, Value: []byte{1}}, "multiprotocol(malformed)"},
		{Capability{Code: CapFourOctetAS, Value: []byte{1}}, "four-octet-as(malformed)"},
		{Capability{Code: 99}, "capability-99"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestNonCapabilityOptParamPreserved(t *testing.T) {
	o := &Open{Version: Version4, MyAS: 100, HoldTime: 180, BGPIdentifier: 7,
		OptParams: []OptParam{{Type: 1, Raw: []byte{0xde, 0xad}}}}
	enc, err := o.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*Open)
	if len(got.OptParams) != 1 || got.OptParams[0].Type != 1 ||
		!bytes.Equal(got.OptParams[0].Raw, []byte{0xde, 0xad}) {
		t.Errorf("raw param not preserved: %+v", got.OptParams)
	}
}

func TestMarshalRejectsOversizedParams(t *testing.T) {
	big := Capability{Code: 99, Value: make([]byte, 300)}
	o := &Open{Version: 4, OptParams: []OptParam{{Type: OptParamCapability, Capabilities: []Capability{big}}}}
	if _, err := o.MarshalBinary(); err == nil {
		t.Error("capability >255 bytes: want error")
	}
	var caps []Capability
	for i := 0; i < 100; i++ {
		caps = append(caps, Capability{Code: uint8(i), Value: []byte{1, 2}})
	}
	o2 := &Open{Version: 4, OptParams: []OptParam{{Type: OptParamCapability, Capabilities: caps}}}
	if _, err := o2.MarshalBinary(); err == nil {
		t.Error("opt params >255 bytes: want error")
	}
}
