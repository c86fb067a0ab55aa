// Package midar implements the IPID-family alias-resolution baselines the
// paper validates against. MIDAR (Keys et al., IEEE/ACM ToN 2013) runs the
// Monotonic Bounds Test over sampled 16-bit IPv4 IP-ID time series.
// Speedtrap (Luckie et al., IMC '13) runs the same test over the 32-bit
// Identification of IPv6 Fragment headers: IPv6 base headers carry no
// Identification field, so it elicits fragmented replies. Both run the
// estimation → elimination → corroboration pipeline over candidate alias
// sets; Speedtrap stops after elimination.
//
// The techniques rest on routers that keep a single counter shared across
// interfaces: interleaved samples from two aliases of one router must fit a
// single monotonically increasing counter, modulo its width. Devices with
// per-interface counters, pseudo-random IDs, constant IDs, or counters too
// fast to track are unusable — which is exactly why the paper could verify
// only 13% of its sampled SSH sets with MIDAR. In IPv6 most devices never
// send fragments at all, so Speedtrap is even more coverage-starved: the
// paper's motivation for application-layer identifiers in IPv6.
package midar

import (
	"sort"
	"time"
)

// Sample is one counter observation.
type Sample struct {
	// T is the observation time.
	T time.Time
	// ID is the sampled value: a 16-bit IPv4 IPID or a 32-bit IPv6
	// fragment identification.
	ID uint32
}

// Series is a time-ordered sample sequence from a single address.
type Series struct {
	// Samples holds the observations in probe order.
	Samples []Sample
	// Modulus is the counter's wrap point, a power of two no larger than
	// 2^32. Zero means 2^16, the IPv4 IPID width; Speedtrap's series carry
	// 2^32.
	Modulus uint64
}

// step returns the advance from prev to cur modulo the series' counter width.
func (s Series) step(prev, cur uint32) uint64 {
	mod := s.Modulus
	if mod == 0 {
		mod = 1 << 16
	}
	return uint64(cur-prev) & (mod - 1)
}

// Unwrap converts the wrapped values into a cumulative counter, assuming the
// counter never moves backwards and never advances a full wrap between
// consecutive samples (guaranteed by the estimation stage's velocity cap and
// probe spacing). A backward step therefore reads as an advance of nearly a
// full wrap, which estimation refuses as too fast.
func (s Series) Unwrap() []uint64 {
	if len(s.Samples) == 0 {
		return nil
	}
	out := make([]uint64, len(s.Samples))
	cur := uint64(s.Samples[0].ID)
	out[0] = cur
	for i := 1; i < len(s.Samples); i++ {
		cur += s.step(s.Samples[i-1].ID, s.Samples[i].ID)
		out[i] = cur
	}
	return out
}

// Velocity estimates the counter speed in IDs/second from the unwrapped
// series. ok is false when the series spans no time or fewer than two
// samples.
func (s Series) Velocity() (idsPerSec float64, ok bool) {
	if len(s.Samples) < 2 {
		return 0, false
	}
	un := s.Unwrap()
	dur := s.Samples[len(s.Samples)-1].T.Sub(s.Samples[0].T).Seconds()
	if dur <= 0 {
		return 0, false
	}
	return float64(un[len(un)-1]-un[0]) / dur, true
}

// Class is the estimation-stage verdict for one target.
type Class int

const (
	// ClassUnresponsive: no (or too few) samples — for Speedtrap, most often
	// a target that never answers with fragments.
	ClassUnresponsive Class = iota
	// ClassConstant: the counter never moves (e.g. always zero); useless
	// for the bounds test.
	ClassConstant
	// ClassTooFast: apparent velocity above the usable cap — either genuine
	// high-traffic counters or pseudo-random IDs, which alias to extreme
	// velocities after unwrapping.
	ClassTooFast
	// ClassUsable: a trackable monotonic counter.
	ClassUsable
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassUnresponsive:
		return "unresponsive"
	case ClassConstant:
		return "constant"
	case ClassTooFast:
		return "too-fast"
	case ClassUsable:
		return "usable"
	default:
		return "unknown"
	}
}

// Classify applies the estimation-stage filter to a single-target series.
func Classify(s Series, maxVelocity float64) Class {
	if len(s.Samples) < 3 {
		return ClassUnresponsive
	}
	v, ok := s.Velocity()
	if !ok {
		return ClassUnresponsive
	}
	if v == 0 {
		return ClassConstant
	}
	if v > maxVelocity {
		return ClassTooFast
	}
	return ClassUsable
}

// timed pairs a sample with its source for the merged test.
type timed struct {
	Sample
	src int
}

// MBT runs the Monotonic Bounds Test on two interleaved series of one
// counter width (a's Modulus is used). It merges the samples in time order
// and accepts the pair as aliases iff every consecutive step is consistent
// with one shared counter: the wrapped increment must not exceed what the
// faster counter could plausibly have produced in the elapsed time (plus a
// margin for the probes themselves and for bursty cross traffic).
//
// vmax is the larger of the two estimated velocities; margin absorbs
// response-packet increments and jitter.
func MBT(a, b Series, vmax float64, margin float64) bool {
	if len(a.Samples) < 2 || len(b.Samples) < 2 {
		return false
	}
	merged := make([]timed, 0, len(a.Samples)+len(b.Samples))
	for _, s := range a.Samples {
		merged = append(merged, timed{s, 0})
	}
	for _, s := range b.Samples {
		merged = append(merged, timed{s, 1})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].T.Before(merged[j].T) })

	crossChecked := false
	for i := 1; i < len(merged); i++ {
		prev, cur := merged[i-1], merged[i]
		dt := cur.T.Sub(prev.T).Seconds()
		if dt < 0 {
			return false
		}
		bound := vmax*dt*2 + margin
		if float64(a.step(prev.ID, cur.ID)) > bound {
			return false
		}
		if prev.src != cur.src {
			crossChecked = true
		}
	}
	// A test with no cross-source adjacency never compared the counters.
	return crossChecked
}

// DefaultMargin is the slack added to every MBT step bound: it covers the
// reply packets the probes themselves induce plus modest cross traffic.
const DefaultMargin = 64
