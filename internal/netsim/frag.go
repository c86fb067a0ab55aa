package netsim

import (
	"net/netip"
	"time"
)

// IPv6 has no Identification field in its base header; Speedtrap (Luckie et
// al., IMC '13) elicits *fragmented* responses — by advertising a tiny MTU —
// and samples the 32-bit Identification of the Fragment extension header,
// which many routers draw from one shared counter. This file adds that probe
// primitive to the fabric. It reads the same counter state as sampleIPID:
// devices that use one counter for IPv4 IPID typically use it for fragment
// IDs too.

// sampleFragID answers a Speedtrap probe against an IPv6 interface, or false
// when the device does not emit fragment identifiers (most hosts answer
// atomically or not at all — the reason IPv6 alias resolution is hard). A
// non-nil policy overrides the device's IPID model, as in sampleIPID.
func (d *Device) sampleFragID(vantage string, addr netip.Addr, now time.Time, policy *IPIDModel) (uint32, bool) {
	if !d.fragEmitter || d.vantageFiltered(vantage) {
		return 0, false
	}
	if !addr.Is6() || addr.Is4In6() {
		return 0, false
	}
	idx, ok := d.ifIndexOf(addr)
	if !ok {
		return 0, false
	}
	model := d.ipidModel
	if policy != nil {
		model = *policy
	}
	return uint32(d.ipid.sample(model, idx, 104729, now)), true
}

// FragIDProbe elicits one IPv6 fragment-identification sample from addr —
// the Speedtrap primitive. ok is false when the target does not answer with
// fragmented packets.
func (v *Vantage) FragIDProbe(addr netip.Addr) (fragID uint32, ok bool) {
	if v.faultDrop(faultFrag, addr, 0) {
		return 0, false
	}
	d := v.fabric.Lookup(addr)
	if d == nil {
		return 0, false
	}
	return d.sampleFragID(v.label, addr, v.fabric.clock.Now(), v.ipidPolicy())
}
