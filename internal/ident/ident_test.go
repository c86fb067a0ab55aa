package ident

import (
	"fmt"
	"strings"
	"testing"

	"aliaslimit/internal/bgp"
	"aliaslimit/internal/sshwire"
)

func sshResult(banner string, mutateKexList bool, fingerprint string) *sshwire.ScanResult {
	p := sshwire.Profiles[0]
	algos := p.Algorithms.Clone()
	if mutateKexList {
		algos.Kex = algos.Kex[1:]
	}
	var cookie [16]byte
	return &sshwire.ScanResult{
		Banner:             banner,
		KexInit:            algos.KexInit(cookie),
		HostKeyAlgo:        sshwire.HostKeyEd25519,
		HostKeyBlob:        []byte("blob-" + fingerprint),
		HostKeyFingerprint: fingerprint,
		KexCompleted:       true,
		SignatureValid:     true,
	}
}

func bgpResult(routerID uint32, asn uint32, hold uint16, cisco bool) *bgp.ScanResult {
	o := &bgp.Open{Version: 4, HoldTime: hold, BGPIdentifier: routerID}
	var caps []bgp.Capability
	if cisco {
		caps = append(caps, bgp.Capability{Code: bgp.CapRouteRefreshCisco})
	}
	caps = append(caps, bgp.Capability{Code: bgp.CapRouteRefresh})
	if asn > 0xffff {
		o.MyAS = bgp.ASTrans
		caps = append(caps, bgp.NewFourOctetAS(asn))
	} else {
		o.MyAS = uint16(asn)
	}
	o.OptParams = []bgp.OptParam{{Type: bgp.OptParamCapability, Capabilities: caps}}
	enc, err := o.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return &bgp.ScanResult{Open: o, OpenLen: uint16(len(enc))}
}

func TestProtocolStrings(t *testing.T) {
	if SSH.String() != "SSH" || BGP.String() != "BGP" || SNMP.String() != "SNMPv3" {
		t.Error("protocol names wrong")
	}
	if Protocol(99).String() != "unknown" {
		t.Error("unknown protocol name")
	}
	if len(Protocols) != 3 {
		t.Error("Protocols list wrong")
	}
}

func TestSSHIdentifierStability(t *testing.T) {
	a, ok := FromSSH(sshResult("SSH-2.0-X", false, "SHA256:k1"))
	if !ok {
		t.Fatal("extraction failed")
	}
	b, _ := FromSSH(sshResult("SSH-2.0-X", false, "SHA256:k1"))
	if a != b {
		t.Error("identical material produced different identifiers")
	}
	if a.Proto != SSH {
		t.Error("wrong protocol")
	}
	if !strings.HasPrefix(a.Key(), "SSH:") {
		t.Errorf("key = %q", a.Key())
	}
}

func TestSSHIdentifierSensitivity(t *testing.T) {
	base, _ := FromSSH(sshResult("SSH-2.0-X", false, "SHA256:k1"))
	cases := map[string]*sshwire.ScanResult{
		"banner":   sshResult("SSH-2.0-Y", false, "SHA256:k1"),
		"kex list": sshResult("SSH-2.0-X", true, "SHA256:k1"),
		"host key": sshResult("SSH-2.0-X", false, "SHA256:k2"),
	}
	for what, res := range cases {
		got, ok := FromSSH(res)
		if !ok {
			t.Fatalf("%s variant: extraction failed", what)
		}
		if got == base {
			t.Errorf("changing %s did not change the identifier", what)
		}
	}
}

// fromSSHKeyOnly is the identifier ablation that uses only the host key.
// It merges the hosts that share a key but differ in capabilities, which
// happens only when keys are genuinely shared (factory defaults). Like
// FromSSH it accepts a host key only with a valid signature.
func fromSSHKeyOnly(res *sshwire.ScanResult) (Identifier, bool) {
	if res == nil || len(res.HostKeyBlob) == 0 || !res.SignatureValid {
		return Identifier{}, false
	}
	return digest(SSH, []byte("key="+res.HostKeyFingerprint)), true
}

// fromBGPRouterIDOnly is the identifier ablation that uses only the BGP
// identifier field, so duplicate router IDs across devices (a
// misconfiguration the paper lists as a limitation) merge.
func fromBGPRouterIDOnly(res *bgp.ScanResult) (Identifier, bool) {
	if !res.Identifiable() {
		return Identifier{}, false
	}
	return digest(BGP, fmt.Appendf(nil, "id=%d", res.Open.BGPIdentifier)), true
}

func TestSSHIdentifierSeparatesSharedKeys(t *testing.T) {
	// Two hosts with the same (factory-default) key but different
	// capability sets: the paper's combined identifier keeps them apart,
	// the key-only ablation merges them.
	a := sshResult("SSH-2.0-X", false, "SHA256:shared")
	b := sshResult("SSH-2.0-X", true, "SHA256:shared")
	idA, _ := FromSSH(a)
	idB, _ := FromSSH(b)
	if idA == idB {
		t.Error("combined identifier merged capability-distinct hosts")
	}
	koA, _ := fromSSHKeyOnly(a)
	koB, _ := fromSSHKeyOnly(b)
	if koA != koB {
		t.Error("key-only ablation should merge same-key hosts")
	}
}

func TestSSHIdentifierRequiresMaterial(t *testing.T) {
	unsigned := sshResult("SSH-2.0-X", false, "SHA256:k1")
	unsigned.SignatureValid = false
	for _, tc := range []struct {
		name          string
		res           *sshwire.ScanResult
		full, keyOnly bool
	}{
		{"complete", sshResult("SSH-2.0-X", false, "SHA256:k1"), true, true},
		{"nil", nil, false, false},
		{"empty", &sshwire.ScanResult{}, false, false},
		{"banner only", &sshwire.ScanResult{Banner: "SSH-2.0-X"}, false, false},
		{"signed key only", &sshwire.ScanResult{HostKeyBlob: []byte("blob"), SignatureValid: true}, false, true},
		// A responder can present another host's public blob; without a
		// signature it must not take that host's identifier.
		{"signature invalid", unsigned, false, false},
	} {
		if _, ok := FromSSH(tc.res); ok != tc.full {
			t.Errorf("%s: FromSSH ok = %v, want %v", tc.name, ok, tc.full)
		}
		if _, ok := fromSSHKeyOnly(tc.res); ok != tc.keyOnly {
			t.Errorf("%s: fromSSHKeyOnly ok = %v, want %v", tc.name, ok, tc.keyOnly)
		}
	}
}

func TestBGPIdentifierStabilityAndSensitivity(t *testing.T) {
	base, ok := FromBGP(bgpResult(100, 65001, 90, true))
	if !ok {
		t.Fatal("extraction failed")
	}
	same, _ := FromBGP(bgpResult(100, 65001, 90, true))
	if base != same {
		t.Error("identical OPEN produced different identifiers")
	}
	variants := map[string]*bgp.ScanResult{
		"router ID":  bgpResult(101, 65001, 90, true),
		"ASN":        bgpResult(100, 65002, 90, true),
		"hold time":  bgpResult(100, 65001, 180, true),
		"capability": bgpResult(100, 65001, 90, false),
	}
	for what, res := range variants {
		got, _ := FromBGP(res)
		if got == base {
			t.Errorf("changing %s did not change the identifier", what)
		}
	}
}

func TestBGPRouterIDOnlyAblation(t *testing.T) {
	// Duplicate router IDs on different devices (misconfiguration): the
	// full identifier separates them when anything else differs; the
	// router-ID-only ablation cannot.
	a := bgpResult(42, 65001, 90, true)
	b := bgpResult(42, 65002, 180, false)
	fullA, _ := FromBGP(a)
	fullB, _ := FromBGP(b)
	if fullA == fullB {
		t.Error("full identifier merged distinct speakers")
	}
	idA, _ := fromBGPRouterIDOnly(a)
	idB, _ := fromBGPRouterIDOnly(b)
	if idA != idB {
		t.Error("router-ID ablation should merge same-ID speakers")
	}
}

func TestBGPIdentifierRequiresOpen(t *testing.T) {
	if _, ok := FromBGP(&bgp.ScanResult{SilentClose: true}); ok {
		t.Error("silent close must not yield an identifier")
	}
	if _, ok := fromBGPRouterIDOnly(&bgp.ScanResult{}); ok {
		t.Error("missing OPEN must not yield an identifier")
	}
}

func TestSNMPIdentifier(t *testing.T) {
	a, ok := FromSNMPEngineID([]byte{0x80, 0, 0, 1, 3, 1, 2, 3, 4, 5, 6})
	if !ok {
		t.Fatal("extraction failed")
	}
	b, _ := FromSNMPEngineID([]byte{0x80, 0, 0, 1, 3, 1, 2, 3, 4, 5, 6})
	if a != b {
		t.Error("not deterministic")
	}
	c, _ := FromSNMPEngineID([]byte{0x80, 0, 0, 1, 3, 1, 2, 3, 4, 5, 7})
	if a == c {
		t.Error("different engines merged")
	}
	if _, ok := FromSNMPEngineID(nil); ok {
		t.Error("empty engine ID must not yield an identifier")
	}
	if a.Proto != SNMP {
		t.Error("wrong protocol")
	}
}

func TestCrossProtocolKeysNeverCollide(t *testing.T) {
	ssh, _ := FromSSH(sshResult("SSH-2.0-X", false, "SHA256:k"))
	b, _ := FromBGP(bgpResult(1, 1, 1, false))
	s, _ := FromSNMPEngineID([]byte{1, 2, 3, 4, 5})
	keys := map[string]bool{ssh.Key(): true, b.Key(): true, s.Key(): true}
	if len(keys) != 3 {
		t.Error("cross-protocol key collision")
	}
}

func TestPreimagesHumanReadable(t *testing.T) {
	p := string(appendSSHPreimage(nil, sshResult("SSH-2.0-X", false, "SHA256:k1")))
	for _, want := range []string{"banner=SSH-2.0-X", "kex=", "key=SHA256:k1", "mac_sc="} {
		if !strings.Contains(p, want) {
			t.Errorf("SSH preimage missing %q", want)
		}
	}
	bp := BGPPreimage(bgpResult(7, 70000, 90, true))
	for _, want := range []string{"ver=4", "as=70000", "hold=90", "id=7", "cap=128"} {
		if !strings.Contains(bp, want) {
			t.Errorf("BGP preimage missing %q: %s", want, bp)
		}
	}
}

// sshPreimageRef is the strings.Builder rendering appendSSHPreimage
// replaced, kept as its reference.
func sshPreimageRef(res *sshwire.ScanResult) string {
	k := res.KexInit
	var sb strings.Builder
	sb.WriteString("banner=")
	sb.WriteString(res.Banner)
	lists := []struct {
		label string
		list  []string
	}{
		{"kex", k.KexAlgorithms},
		{"hka", k.ServerHostKeyAlgorithms},
		{"enc_cs", k.EncryptionClientToServer},
		{"enc_sc", k.EncryptionServerToClient},
		{"mac_cs", k.MACClientToServer},
		{"mac_sc", k.MACServerToClient},
		{"comp_cs", k.CompressionClientToServer},
		{"comp_sc", k.CompressionServerToClient},
		{"lang_cs", k.LanguagesClientToServer},
		{"lang_sc", k.LanguagesServerToClient},
	}
	for _, l := range lists {
		sb.WriteByte('\x1f')
		sb.WriteString(l.label)
		sb.WriteByte('=')
		sb.WriteString(strings.Join(l.list, ","))
	}
	sb.WriteString("\x1fkey=")
	sb.WriteString(res.HostKeyFingerprint)
	return sb.String()
}

// TestSSHPreimageMatchesReference holds the exact-size renderer, and the
// digest FromSSH takes of it, to the strings.Builder reference: on every
// built-in profile, and on lists that are empty, hold empty names, or would
// parse from a name-list with a trailing comma.
func TestSSHPreimageMatchesReference(t *testing.T) {
	var results []*sshwire.ScanResult
	for _, p := range sshwire.Profiles {
		r := sshResult(p.Banner, false, "SHA256:"+p.Name)
		r.KexInit = p.Algorithms.KexInit(r.KexInit.Cookie)
		results = append(results, r)
	}
	odd := sshResult("SSH-2.0-", false, "SHA256:")
	odd.KexInit.KexAlgorithms = nil
	odd.KexInit.ServerHostKeyAlgorithms = []string{}
	odd.KexInit.EncryptionClientToServer = []string{""}
	odd.KexInit.EncryptionServerToClient = []string{"", ""}
	odd.KexInit.MACClientToServer = []string{"a", "", "b"}
	odd.KexInit.MACServerToClient = []string{"hmac-sha1", ""}
	odd.KexInit.LanguagesClientToServer = []string{"en"}
	results = append(results, odd)
	for _, res := range results {
		want := sshPreimageRef(res)
		if got := string(appendSSHPreimage(nil, res)); got != want {
			t.Errorf("appendSSHPreimage = %q, reference %q", got, want)
		}
		if got := string(appendSSHPreimage([]byte("prefix"), res)); got != "prefix"+want {
			t.Errorf("appendSSHPreimage after a prefix = %q", got)
		}
		if got, _ := FromSSH(res); got != digest(SSH, []byte(want)) {
			t.Errorf("FromSSH = %v, want the digest of the reference preimage", got)
		}
	}
}
