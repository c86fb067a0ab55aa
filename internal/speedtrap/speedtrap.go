// Package speedtrap implements the IPv6 analogue of MIDAR: Speedtrap
// (Luckie, Beverly, Brinkmeyer, claffy — IMC '13), which the paper cites as
// the IPID-family technique for IPv6. IPv6 base headers carry no
// Identification field, so Speedtrap elicits *fragmented* responses and
// samples the 32-bit Identification of the Fragment extension header; many
// routers draw those values from one shared, monotonic counter across
// interfaces.
//
// The pipeline mirrors package midar — estimation, pairwise monotonic
// bounds testing, corroboration — but over 32-bit samples (the counter
// practically never wraps between probes) and with the distinctive IPv6
// failure mode: most devices simply never send fragments, so the technique
// is even more coverage-starved than its IPv4 sibling. That scarcity is the
// paper's motivation for application-layer identifiers in IPv6.
package speedtrap

import (
	"net/netip"
	"sort"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/netsim"
)

// FragProber supplies fragment-identifier samples; netsim.Vantage
// implements it.
type FragProber interface {
	FragIDProbe(addr netip.Addr) (fragID uint32, ok bool)
}

// Sample is one fragment-ID observation.
type Sample struct {
	// T is the observation time.
	T time.Time
	// ID is the 32-bit fragment identification value.
	ID uint32
}

// Series is a time-ordered sample sequence from one address.
type Series struct {
	// Samples holds the observations in probe order.
	Samples []Sample
}

// Velocity estimates counter speed in IDs/second. ok is false for series
// too short or spanning no time. A 32-bit counter is assumed not to wrap
// between consecutive probes (it would need >4e9 packets in one interval).
func (s Series) Velocity() (idsPerSec float64, ok bool) {
	if len(s.Samples) < 2 {
		return 0, false
	}
	first, last := s.Samples[0], s.Samples[len(s.Samples)-1]
	dur := last.T.Sub(first.T).Seconds()
	if dur <= 0 {
		return 0, false
	}
	return float64(last.ID-first.ID) / dur, true
}

// monotonic reports whether the series never decreases (mod 2^32 wrap-free
// assumption).
func (s Series) monotonic() bool {
	for i := 1; i < len(s.Samples); i++ {
		if s.Samples[i].ID < s.Samples[i-1].ID {
			return false
		}
	}
	return true
}

// Class is the estimation verdict; the values parallel midar.Class but the
// dominant one in IPv6 is ClassNoFragments.
type Class int

const (
	// ClassNoFragments: the target never answered with fragments.
	ClassNoFragments Class = iota
	// ClassNonMonotonic: fragment IDs observed but not from a counter.
	ClassNonMonotonic
	// ClassConstant: fragment IDs never advance.
	ClassConstant
	// ClassTooFast: counter too fast to bound.
	ClassTooFast
	// ClassUsable: a trackable shared-looking counter.
	ClassUsable
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassNoFragments:
		return "no-fragments"
	case ClassNonMonotonic:
		return "non-monotonic"
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

// Classify applies the estimation filter.
func Classify(s Series, maxVelocity float64) Class {
	if len(s.Samples) < 3 {
		return ClassNoFragments
	}
	if !s.monotonic() {
		return ClassNonMonotonic
	}
	v, ok := s.Velocity()
	if !ok {
		return ClassNoFragments
	}
	if v == 0 {
		return ClassConstant
	}
	if v > maxVelocity {
		return ClassTooFast
	}
	return ClassUsable
}

// MBT is the 32-bit monotonic bounds test: merged in time order, every step
// must be non-negative and within what the faster counter could have
// produced.
func MBT(a, b Series, vmax, margin float64) bool {
	if len(a.Samples) < 2 || len(b.Samples) < 2 {
		return false
	}
	type timed struct {
		Sample
		src int
	}
	merged := make([]timed, 0, len(a.Samples)+len(b.Samples))
	for _, s := range a.Samples {
		merged = append(merged, timed{s, 0})
	}
	for _, s := range b.Samples {
		merged = append(merged, timed{s, 1})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].T.Before(merged[j].T) })
	cross := false
	for i := 1; i < len(merged); i++ {
		prev, cur := merged[i-1], merged[i]
		if cur.ID < prev.ID {
			return false
		}
		dt := cur.T.Sub(prev.T).Seconds()
		if float64(cur.ID-prev.ID) > vmax*dt*2+margin {
			return false
		}
		if prev.src != cur.src {
			cross = true
		}
	}
	return cross
}

// The pipeline's fixed parameters.
const (
	// rounds is the number of interleaved probe rounds.
	rounds = 8
	// interval is the (simulated) probe spacing.
	interval = 100 * time.Millisecond
	// maxVelocity caps usable counter speed.
	maxVelocity = 10000
	// margin is the bounds-test slack.
	margin = 64
)

// Session binds a prober to the simulation clock.
type Session struct {
	prober FragProber
	clock  *netsim.SimClock
}

// NewSession builds a session.
func NewSession(p FragProber, clock *netsim.SimClock) *Session {
	return &Session{prober: p, clock: clock}
}

// now returns simulated time.
func (s *Session) now() time.Time {
	if s.clock == nil {
		return time.Time{}
	}
	return s.clock.Now()
}

// tick advances simulated time by one probe interval.
func (s *Session) tick() {
	if s.clock != nil {
		s.clock.Advance(interval)
	}
}

// SampleSet collects interleaved fragment-ID series for candidate addresses.
func (s *Session) SampleSet(addrs []netip.Addr) map[netip.Addr]Series {
	out := make(map[netip.Addr]Series, len(addrs))
	for r := 0; r < rounds; r++ {
		for _, a := range addrs {
			if id, ok := s.prober.FragIDProbe(a); ok {
				sr := out[a]
				sr.Samples = append(sr.Samples, Sample{T: s.now(), ID: id})
				out[a] = sr
			}
			s.tick()
		}
	}
	return out
}

// Outcome parallels midar.SetOutcome.
type Outcome int

const (
	// OutcomeUnverifiable: fewer than two usable counters.
	OutcomeUnverifiable Outcome = iota
	// OutcomeConfirmed: one consistent group covering all usable addresses.
	OutcomeConfirmed
	// OutcomeSplit: the candidate set fractured.
	OutcomeSplit
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeUnverifiable:
		return "unverifiable"
	case OutcomeConfirmed:
		return "confirmed"
	case OutcomeSplit:
		return "split"
	default:
		return "unknown"
	}
}

// Result is the verdict for one candidate IPv6 alias set.
type Result struct {
	// Candidate is the set under test.
	Candidate alias.Set
	// Outcome is the verdict.
	Outcome Outcome
	// UsableAddrs passed estimation.
	UsableAddrs []netip.Addr
	// Partition is Speedtrap's own grouping of the usable addresses.
	Partition []alias.Set
}

// VerifySet runs estimation and pairwise bounds testing on one candidate
// IPv6 alias set.
func (s *Session) VerifySet(candidate alias.Set) Result {
	res := Result{Candidate: candidate}
	series := s.SampleSet(candidate.Addrs)
	velocities := map[netip.Addr]float64{}
	for _, a := range candidate.Addrs {
		sr := series[a]
		if Classify(sr, maxVelocity) != ClassUsable {
			continue
		}
		v, _ := sr.Velocity()
		res.UsableAddrs = append(res.UsableAddrs, a)
		velocities[a] = v
	}
	if len(res.UsableAddrs) < 2 {
		res.Outcome = OutcomeUnverifiable
		return res
	}
	n := len(res.UsableAddrs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ai, aj := res.UsableAddrs[i], res.UsableAddrs[j]
			vmax := velocities[ai]
			if velocities[aj] > vmax {
				vmax = velocities[aj]
			}
			if MBT(series[ai], series[aj], vmax, margin) {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := map[int][]netip.Addr{}
	for i, a := range res.UsableAddrs {
		groups[find(i)] = append(groups[find(i)], a)
	}
	for _, g := range groups {
		res.Partition = append(res.Partition, alias.NewSet(g...))
	}
	if len(res.Partition) == 1 && res.Partition[0].Size() == n {
		res.Outcome = OutcomeConfirmed
	} else {
		res.Outcome = OutcomeSplit
	}
	return res
}
