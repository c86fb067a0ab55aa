package sshwire_test

import (
	"bytes"
	"net/netip"
	"testing"

	"aliaslimit/internal/netsim"
	"aliaslimit/internal/sshwire"
)

// raceEnabled is set by race_test.go: the race detector's instrumentation
// shifts allocation counts, so the ceilings below hold only without it.
var raceEnabled bool

// Allocation ceilings for one grab, each the count measured when they were
// set plus a small margin. A scan or a served handshake replays a genuine
// transcript, so the whole path runs: banner, KEXINIT, ECDH, exchange hash,
// signature.
const (
	scanAllocCeiling  = 33
	serveAllocCeiling = 33
)

// TestScanAllocs bounds what one Scan allocates, replaying a genuine
// server's transcript.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	res, transcript, _ := scanGenuine(t, newHostKey(t))
	allocs := testing.AllocsPerRun(50, func() {
		got, err := sshwire.Scan(newWireConn(transcript), sshwire.ScanConfig{})
		if err != nil || !got.KexCompleted || got.HostKeyFingerprint != res.HostKeyFingerprint {
			t.Fatalf("replayed scan: %+v, %v", got, err)
		}
	})
	if allocs > scanAllocCeiling {
		t.Errorf("Scan: %.1f allocs per grab, want <= %d", allocs, scanAllocCeiling)
	}
}

// TestServeAllocs bounds what Server.Serve allocates for one handshake,
// replaying a genuine scanner's transcript.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	key := newHostKey(t)
	_, _, transcript := scanGenuine(t, key)
	p := sshwire.Profiles[0]
	srv := sshwire.NewServer(sshwire.ServerConfig{Banner: p.Banner, Algorithms: p.Algorithms, HostKey: key})
	sc := netsim.ServeContext{LocalAddr: netip.MustParseAddr("192.0.2.1")}
	var sent bytes.Buffer
	srv.Serve(recordConn{newWireConn(transcript), &sent}, sc)
	if ecdhReplies(t, sent.Bytes(), p.Banner) != 1 {
		t.Fatal("the replayed scanner transcript earned no ECDH_REPLY")
	}
	allocs := testing.AllocsPerRun(50, func() {
		srv.Serve(newWireConn(transcript), sc)
	})
	if allocs > serveAllocCeiling {
		t.Errorf("Serve: %.1f allocs per handshake, want <= %d", allocs, serveAllocCeiling)
	}
}
