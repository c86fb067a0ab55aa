package bgp

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"aliaslimit/internal/netsim"
)

// wireConn is a net.Conn whose speaker sends the bytes of r and then
// closes; writes vanish and deadlines are ignored.
type wireConn struct{ r *bytes.Reader }

func (c wireConn) Read(p []byte) (int, error)     { return c.r.Read(p) }
func (wireConn) Write(p []byte) (int, error)      { return len(p), nil }
func (wireConn) Close() error                     { return nil }
func (wireConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (wireConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (wireConn) SetDeadline(time.Time) error      { return nil }
func (wireConn) SetReadDeadline(time.Time) error  { return nil }
func (wireConn) SetWriteDeadline(time.Time) error { return nil }

// runSpeaker wires a speaker to one end of a pipe and scans the other end.
func runSpeaker(t *testing.T, cfg SpeakerConfig, timeout time.Duration) *ScanResult {
	t.Helper()
	client, server := net.Pipe()
	go NewSpeaker(cfg).Serve(server, netsim.ServeContext{})
	res, err := Scan(client, timeout)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return res
}

func TestScanOpenNotify(t *testing.T) {
	cfg := SpeakerConfig{
		ASN: 396982, RouterID: 0x0a000001, HoldTime: 90,
		Behavior: BehaviorOpenNotify, CiscoRouteRefresh: true,
		OneParamPerCapability: true,
	}
	res := runSpeaker(t, cfg, time.Second)
	if !res.Identifiable() {
		t.Fatal("want identifiable result")
	}
	if res.Open.EffectiveAS() != 396982 {
		t.Errorf("EffectiveAS = %d, want 396982", res.Open.EffectiveAS())
	}
	if res.Open.MyAS != ASTrans {
		t.Errorf("MyAS = %d, want AS_TRANS for 4-octet ASN", res.Open.MyAS)
	}
	if res.Open.HoldTime != 90 {
		t.Errorf("HoldTime = %d, want 90", res.Open.HoldTime)
	}
	if res.Notification == nil {
		t.Fatal("want NOTIFICATION after OPEN")
	}
	if res.Notification.Code != NotifCease || res.Notification.Subcode != CeaseConnectionRejected {
		t.Errorf("notification %d/%d, want Cease/Connection-Rejected",
			res.Notification.Code, res.Notification.Subcode)
	}
	if res.OpenLen == 0 {
		t.Error("OpenLen not recorded")
	}
	if res.SilentClose {
		t.Error("SilentClose should be false")
	}
}

func TestScanSmallASN(t *testing.T) {
	cfg := SpeakerConfig{ASN: 65001, RouterID: 42, HoldTime: 180, Behavior: BehaviorOpenNotify}
	res := runSpeaker(t, cfg, time.Second)
	if !res.Identifiable() {
		t.Fatal("want identifiable")
	}
	if res.Open.MyAS != 65001 || res.Open.EffectiveAS() != 65001 {
		t.Errorf("ASN: MyAS=%d EffectiveAS=%d, want 65001", res.Open.MyAS, res.Open.EffectiveAS())
	}
}

func TestScanSilentClose(t *testing.T) {
	res := runSpeaker(t, SpeakerConfig{Behavior: BehaviorSilentClose}, time.Second)
	if res.Identifiable() {
		t.Error("silent close must not be identifiable")
	}
	if !res.SilentClose {
		t.Error("SilentClose flag not set")
	}
}

func TestScanOpenOnly(t *testing.T) {
	cfg := SpeakerConfig{ASN: 64512, RouterID: 9, HoldTime: 30, Behavior: BehaviorOpenOnly}
	res := runSpeaker(t, cfg, time.Second)
	if !res.Identifiable() {
		t.Fatal("open-only speaker should yield an OPEN")
	}
	if res.Notification != nil {
		t.Error("open-only speaker should not send a NOTIFICATION")
	}
}

func TestScanTimeoutOnMuteServer(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	// Server never writes and never closes: the scan must give up at its
	// deadline and classify the target as silent.
	start := time.Now()
	res, err := Scan(client, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("scan did not respect timeout: took %v", elapsed)
	}
	if res.Identifiable() || !res.SilentClose {
		t.Errorf("mute server: got %+v, want silent", res)
	}
}

func TestScanGarbageBytes(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		server.Write([]byte("HTTP/1.0 200 OK\r\n\r\nnot bgp at all"))
	}()
	if res, err := Scan(client, time.Second); err == nil {
		t.Errorf("garbage input: want parse error, got %+v", res)
	}
}

func TestScanFragmentedWrites(t *testing.T) {
	// Byte-at-a-time delivery must still reassemble the OPEN message.
	cfg := SpeakerConfig{ASN: 65001, RouterID: 7, HoldTime: 90, Behavior: BehaviorOpenNotify}
	open, err := cfg.buildOpen().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	notif, _ := (&Notification{Code: NotifCease, Subcode: CeaseConnectionRejected}).MarshalBinary()
	stream := append(append([]byte(nil), open...), notif...)

	client, server := net.Pipe()
	go func() {
		defer server.Close()
		for _, b := range stream {
			if _, err := server.Write([]byte{b}); err != nil {
				return
			}
		}
	}()
	res, err := Scan(client, time.Second)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !res.Identifiable() || res.Notification == nil {
		t.Errorf("fragmented stream not reassembled: %+v", res)
	}
	if res.Open.BGPIdentifier != 7 {
		t.Errorf("BGPIdentifier = %d, want 7", res.Open.BGPIdentifier)
	}
}

// TestScanPastOneBuffer sends more KEEPALIVEs than one read buffer holds
// before the OPEN, so the scanner must carry a message that straddles the
// buffer's end into a fresh one.
func TestScanPastOneBuffer(t *testing.T) {
	cfg := SpeakerConfig{ASN: 65001, RouterID: 9, HoldTime: 90, Behavior: BehaviorOpenNotify}
	open, err := cfg.buildOpen().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	notif, _ := (&Notification{Code: NotifCease, Subcode: CeaseConnectionRejected}).MarshalBinary()
	keepalive, _ := Keepalive{}.MarshalBinary()
	for _, n := range []int{MaxMessageLen / len(keepalive), 3 * MaxMessageLen / len(keepalive)} {
		stream := bytes.Repeat(keepalive, n)
		stream = append(append(stream, open...), notif...)
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			server.Write(stream)
		}()
		res, err := Scan(client, time.Second)
		if err != nil {
			t.Fatalf("%d keepalives: Scan: %v", n, err)
		}
		if !res.Identifiable() || res.Notification == nil || res.Open.BGPIdentifier != 9 {
			t.Errorf("%d keepalives: OPEN and NOTIFICATION not both read: %+v", n, res)
		}
	}
}

// TestScanMalformedWholeMessage: a message whose header says it is whole
// but whose body is too short for its type fails the scan at once, instead
// of being taken for a partial read and waited on until the deadline.
func TestScanMalformedWholeMessage(t *testing.T) {
	shortOpen := append(marshalHeader(nil, 5, TypeOpen), Version4, 0, 1, 0, 90)
	truncatedCap, _ := figure2Open().MarshalBinary()
	truncatedCap[HeaderLen+11] = 7 // the first capability claims 7 value bytes
	for name, msg := range map[string][]byte{"short OPEN body": shortOpen, "truncated capability": truncatedCap} {
		client, server := net.Pipe()
		go server.Write(msg)
		res, err := Scan(client, 2*time.Second)
		server.Close()
		if !errors.Is(err, ErrShortMessage) || res.Identifiable() {
			t.Errorf("%s: Scan = %+v, %v; want ErrShortMessage and no OPEN", name, res, err)
		}
	}
}

// FuzzScan runs Scan over a connection whose speaker sends the fuzz input,
// seeded with the paper's Figure 2 OPEN and NOTIFICATION and every
// truncation of them. No input may panic or hang the scan, and an OPEN it
// returns must re-encode with MarshalBinary to OpenLen bytes that parse back
// to an equal OPEN.
func FuzzScan(f *testing.F) {
	open, _ := figure2Open().MarshalBinary()
	notif, _ := (&Notification{Code: NotifCease, Subcode: CeaseConnectionRejected}).MarshalBinary()
	stream := append(open, notif...)
	for n := 0; n <= len(stream); n++ {
		f.Add(stream[:n])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		res, _ := Scan(wireConn{bytes.NewReader(in)}, time.Second)
		if res.Open == nil {
			return
		}
		enc, err := res.Open.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", res.Open, err)
		}
		if len(enc) != int(res.OpenLen) {
			t.Fatalf("re-encoded OPEN is %d bytes, OpenLen %d", len(enc), res.OpenLen)
		}
		msg, n, err := Parse(enc)
		if err != nil || n != len(enc) || !reflect.DeepEqual(msg, res.Open) {
			t.Fatalf("re-encoded OPEN parses to %+v (%d bytes, %v), want %+v", msg, n, err, res.Open)
		}
	})
}

func TestSpeakerCapabilityShape(t *testing.T) {
	perParam := SpeakerConfig{ASN: 65001, RouterID: 1, HoldTime: 90,
		Behavior: BehaviorOpenNotify, CiscoRouteRefresh: true, MPIPv6: true,
		OneParamPerCapability: true}
	res := runSpeaker(t, perParam, time.Second)
	if got := len(res.Open.OptParams); got != 3 {
		t.Errorf("per-capability packing: %d params, want 3", got)
	}

	packed := perParam
	packed.OneParamPerCapability = false
	res2 := runSpeaker(t, packed, time.Second)
	if got := len(res2.Open.OptParams); got != 1 {
		t.Errorf("packed: %d params, want 1", got)
	}
	if got := len(res2.Open.OptParams[0].Capabilities); got != 3 {
		t.Errorf("packed capabilities = %d, want 3", got)
	}
}

func TestBehaviorString(t *testing.T) {
	for b, want := range map[Behavior]string{
		BehaviorSilentClose: "silent-close",
		BehaviorOpenNotify:  "open-notify",
		BehaviorOpenOnly:    "open-only",
		Behavior(42):        "unknown",
	} {
		if got := b.String(); got != want {
			t.Errorf("Behavior(%d).String() = %q, want %q", b, got, want)
		}
	}
}
