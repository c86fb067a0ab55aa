package ident

import "testing"

// raceEnabled is set by race_test.go: the race detector's instrumentation
// shifts allocation counts, so the ceiling below holds only without it.
var raceEnabled bool

// fromSSHAllocCeiling is the count measured when it was set plus a small
// margin.
const fromSSHAllocCeiling = 5

// TestFromSSHAllocs bounds what extracting one SSH identifier allocates.
func TestFromSSHAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	res := sshResult("SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3", false, "SHA256:k1")
	want, ok := FromSSH(res)
	if !ok {
		t.Fatal("FromSSH refused a complete result")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, _ := FromSSH(res); got != want {
			t.Fatalf("FromSSH = %v, want %v", got, want)
		}
	})
	if allocs > fromSSHAllocCeiling {
		t.Errorf("FromSSH: %.1f allocs per identifier, want <= %d", allocs, fromSSHAllocCeiling)
	}
}
