package ptrdns

import (
	"net/netip"
	"testing"

	"aliaslimit/internal/alias"
)

func reg(pairs ...string) Registry {
	r := make(Registry)
	for i := 0; i+1 < len(pairs); i += 2 {
		r[netip.MustParseAddr(pairs[i])] = pairs[i+1]
	}
	return r
}

func TestIsGeneric(t *testing.T) {
	generic := []string{
		"host-1-2-3-4.dynamic.as3320.example.net",
		"1-2-3-4.pool.isp.net",
		"dhcp-12.example.org",
		"x.DYNAMIC.example.net",
	}
	for _, n := range generic {
		if !IsGeneric(n) {
			t.Errorf("IsGeneric(%q) = false", n)
		}
	}
	named := []string{"ge-0-0-1.rtr5.as3320.example.net", "vm7.as14061.example.net"}
	for _, n := range named {
		if IsGeneric(n) {
			t.Errorf("IsGeneric(%q) = true", n)
		}
	}
}

func TestInferDualStack(t *testing.T) {
	r := reg(
		"10.0.0.1", "srv1.example.net",
		"2a00::1", "srv1.example.net", // pairs with 10.0.0.1
		"10.0.0.2", "srv2.example.net", // no v6 counterpart
		"2a00::2", "host-2a00--2.dynamic.example.net", // generic: ignored
		"10.0.0.3", "srv3.example.net",
		"2a00::3", "srv3.example.net",
	)
	sets := InferDualStack(r)
	if len(sets) != 2 {
		t.Fatalf("dual-stack sets = %v", sets)
	}
	for _, s := range sets {
		if !s.IsDualStack() || s.Size() != 2 {
			t.Errorf("bad set %v", s)
		}
	}
}

func TestCompareAgainst(t *testing.T) {
	ptrSets := []alias.Set{
		alias.NewSet(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("2a00::1")), // confirmed
		alias.NewSet(netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("2a00::9")), // contradicted
		alias.NewSet(netip.MustParseAddr("10.9.9.9"), netip.MustParseAddr("2a00::8")), // uncovered
	}
	reference := []alias.Set{
		alias.NewSet(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("2a00::1")),
		alias.NewSet(netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("2a00::2")),
		alias.NewSet(netip.MustParseAddr("2a00::9")),
	}
	c := CompareAgainst(ptrSets, reference)
	if c.Confirmed != 1 || c.Contradicted != 1 || c.Uncovered != 1 {
		t.Errorf("compare = %+v", c)
	}
}
