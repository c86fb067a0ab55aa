// Package midar implements the IPID-based alias-resolution baseline the
// paper validates against: MIDAR's Monotonic Bounds Test (Keys et al.,
// IEEE/ACM ToN 2013) over sampled IP-ID time series, with the
// estimation → elimination → corroboration pipeline run over candidate
// alias sets.
//
// The technique rests on routers that keep a single IPID counter shared
// across interfaces: interleaved samples from two aliases of one router must
// fit a single monotonically increasing (mod 2^16) counter. Devices with
// per-interface counters, pseudo-random IPIDs, constant IPIDs, or counters
// too fast to track are unusable — which is exactly why the paper could
// verify only 13% of its sampled SSH sets with MIDAR.
package midar

import (
	"sort"
	"time"
)

// Sample is one IPID observation.
type Sample struct {
	// T is the observation time.
	T time.Time
	// ID is the 16-bit IP identification value.
	ID uint16
}

// Series is a time-ordered sample sequence from a single address.
type Series struct {
	// Addr identifies the target only for reporting; the math uses T/ID.
	Samples []Sample
}

// Unwrap converts the wrapped 16-bit values into a cumulative counter,
// assuming the counter never moves backwards and never advances a full wrap
// between consecutive samples (guaranteed by the estimation stage's velocity
// cap and probe spacing).
func (s Series) Unwrap() []uint64 {
	if len(s.Samples) == 0 {
		return nil
	}
	out := make([]uint64, len(s.Samples))
	cur := uint64(s.Samples[0].ID)
	out[0] = cur
	for i := 1; i < len(s.Samples); i++ {
		delta := uint64(s.Samples[i].ID-s.Samples[i-1].ID) & 0xffff
		cur += delta
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
	// ClassUnresponsive: no (or too few) IPID samples.
	ClassUnresponsive Class = iota
	// ClassConstant: the counter never moves (e.g. always zero); useless
	// for the bounds test.
	ClassConstant
	// ClassTooFast: apparent velocity above the usable cap — either genuine
	// high-traffic counters or pseudo-random IPIDs, which alias to extreme
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

// Classify applies MIDAR's estimation-stage filter to a single-target series.
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

// MBT runs the Monotonic Bounds Test on two interleaved series. It merges
// the samples in time order and accepts the pair as aliases iff every
// consecutive step is consistent with one shared counter: the wrapped
// increment must not exceed what the faster counter could plausibly have
// produced in the elapsed time (plus a margin for the probes themselves and
// for bursty cross traffic).
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
		step := float64(uint64(cur.ID-prev.ID) & 0xffff)
		if step > bound {
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
