package midar

import (
	"net/netip"
	"time"

	"aliaslimit/internal/netsim"
)

// Prober supplies IPID samples. netsim.Vantage implements it.
type Prober interface {
	IPIDProbe(addr netip.Addr) (ipid uint16, ok bool)
}

// Config tunes the MIDAR pipeline.
type Config struct {
	// Rounds is the number of interleaved probe rounds per target set.
	Rounds int
	// Interval is the (simulated) spacing between consecutive probes.
	Interval time.Duration
	// MaxVelocity is the usability cap in IDs/second; targets whose
	// apparent counter is faster are discarded in estimation.
	MaxVelocity float64
	// Margin is the MBT step slack.
	Margin float64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.MaxVelocity <= 0 {
		c.MaxVelocity = 10000
	}
	if c.Margin <= 0 {
		c.Margin = DefaultMargin
	}
	return c
}

// Session binds a prober to a simulated clock. Probe pacing advances the
// clock, so large runs consume simulated days — the mechanism behind the
// paper's observation that its MIDAR comparison took three weeks and
// suffered IP churn.
type Session struct {
	prober Prober
	clock  *netsim.SimClock
	cfg    Config
}

// NewSession builds a session. clock may be nil only if no pacing is wanted
// (every probe then shares one timestamp and the MBT degenerates), so in
// practice pass the fabric's SimClock.
func NewSession(p Prober, clock *netsim.SimClock, cfg Config) *Session {
	return &Session{prober: p, clock: clock, cfg: cfg.withDefaults()}
}

// now returns the current simulated time.
func (s *Session) now() time.Time {
	if s.clock == nil {
		return time.Time{}
	}
	return s.clock.Now()
}

// tick advances simulated time by the probe interval.
func (s *Session) tick() {
	if s.clock != nil {
		s.clock.Advance(s.cfg.Interval)
	}
}

// SampleSet collects interleaved series for a set of candidate addresses:
// round-robin across addresses, Rounds passes, one Interval per probe — the
// interleaving the bounds test requires.
func (s *Session) SampleSet(addrs []netip.Addr) map[netip.Addr]Series {
	out := make(map[netip.Addr]Series, len(addrs))
	for r := 0; r < s.cfg.Rounds; r++ {
		for _, a := range addrs {
			if id, ok := s.prober.IPIDProbe(a); ok {
				sr := out[a]
				sr.Samples = append(sr.Samples, Sample{T: s.now(), ID: id})
				out[a] = sr
			}
			s.tick()
		}
	}
	return out
}

// ClassifyTargets runs the estimation stage over addrs: sample each target
// and classify its counter behaviour.
func (s *Session) ClassifyTargets(addrs []netip.Addr) map[netip.Addr]Class {
	series := s.SampleSet(addrs)
	out := make(map[netip.Addr]Class, len(addrs))
	for _, a := range addrs {
		out[a] = Classify(series[a], s.cfg.MaxVelocity)
	}
	return out
}
