package netsim

import (
	"sync"
	"time"

	"aliaslimit/internal/xrand"
)

// IPIDModel describes how a device assigns the 16-bit IP identification field
// to the packets it originates. The classical alias resolvers (Ally,
// RadarGun, MIDAR) rely on routers that keep a single monotonic counter
// shared across all interfaces; modern devices increasingly use per-interface
// counters, pseudo-random values, or constant zero, which is exactly why the
// paper's MIDAR validation could verify only 13% of its sample.
type IPIDModel int

const (
	// IPIDSharedMonotonic is one counter shared by every interface,
	// incremented per generated packet plus a background traffic rate
	// (velocity). This is the population MIDAR can work with.
	IPIDSharedMonotonic IPIDModel = iota
	// IPIDPerInterface keeps an independent counter per interface; pairwise
	// monotonic-bounds tests across interfaces fail.
	IPIDPerInterface
	// IPIDRandom draws every IPID independently at random.
	IPIDRandom
	// IPIDZero always answers zero (the common "constant" behaviour of
	// devices that set DF and never fragment).
	IPIDZero
	// IPIDHighVelocity is shared and monotonic but driven by so much
	// background traffic that it wraps several times between any two probes
	// a polite prober can send, defeating the bounds test in practice.
	IPIDHighVelocity
)

// String returns the model name used in logs and test output.
func (m IPIDModel) String() string {
	switch m {
	case IPIDSharedMonotonic:
		return "shared-monotonic"
	case IPIDPerInterface:
		return "per-interface"
	case IPIDRandom:
		return "random"
	case IPIDZero:
		return "zero"
	case IPIDHighVelocity:
		return "high-velocity"
	default:
		return "unknown"
	}
}

// ipidState holds the mutable counter state for one device.
type ipidState struct {
	mu sync.Mutex
	// shared counter (models SharedMonotonic and HighVelocity)
	counter uint64
	// per-interface counters, indexed by interface index (grown on demand —
	// a dense slice, not a map: interface indices are small and contiguous)
	perIf []uint64
	// last time the background velocity was applied
	lastTick time.Time
	// velocity is background packets/second added to the shared counter.
	velocity float64
	// rng stream for the Random model
	rng *xrand.SplitMix64
	// fractional carry of background traffic not yet materialised
	carry float64
}

func newIPIDState(seed uint64, velocity float64, origin time.Time) *ipidState {
	return &ipidState{
		counter:  seed & 0xffff,
		lastTick: origin,
		velocity: velocity,
		rng:      xrand.NewSplitMix64(seed),
	}
}

// sample returns the counter value a probe hitting interface ifIndex at time
// now would observe under model m, advancing the counter state. The value is
// untruncated: sampleIPID keeps its low 16 bits and sampleFragID its low 32.
// Under the per-interface model, interface i's counter is offset by
// i × stride.
func (s *ipidState) sample(m IPIDModel, ifIndex int, stride uint64, now time.Time) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m {
	case IPIDZero:
		return 0
	case IPIDRandom:
		return s.rng.Uint64()
	case IPIDPerInterface:
		for ifIndex >= len(s.perIf) {
			s.perIf = append(s.perIf, 0)
		}
		s.perIf[ifIndex]++
		return s.perIf[ifIndex] + uint64(ifIndex)*stride
	case IPIDSharedMonotonic, IPIDHighVelocity:
		// Apply background traffic accumulated since the last sample.
		if now.After(s.lastTick) {
			dt := now.Sub(s.lastTick).Seconds()
			inc := s.velocity*dt + s.carry
			whole := uint64(inc)
			s.carry = inc - float64(whole)
			s.counter += whole
			s.lastTick = now
		}
		s.counter++ // the reply packet itself
		return s.counter
	default:
		return 0
	}
}
