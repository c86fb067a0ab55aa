package bgp

import (
	"bytes"
	"net"
	"testing"
	"time"

	"aliaslimit/internal/netsim"
)

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
