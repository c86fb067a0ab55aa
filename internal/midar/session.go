package midar

import (
	"net/netip"
	"time"

	"aliaslimit/internal/netsim"
)

// Prober supplies IPv4 IPID samples. netsim.Vantage implements it.
type Prober interface {
	IPIDProbe(addr netip.Addr) (ipid uint16, ok bool)
}

// FragProber supplies IPv6 fragment-identification samples, Speedtrap's
// probe. netsim.Vantage implements it.
type FragProber interface {
	FragIDProbe(addr netip.Addr) (fragID uint32, ok bool)
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
	// probe samples one address's counter.
	probe func(netip.Addr) (uint32, bool)
	// modulus is the sampled counter's width, as in Series.Modulus.
	modulus uint64
	// corroborate re-tests elimination's groups with fresh samples.
	corroborate bool
	clock       *netsim.SimClock
	cfg         Config
}

// NewSession builds a MIDAR session over 16-bit IPv4 IPIDs. clock may be nil
// only if no pacing is wanted (every probe then shares one timestamp and the
// MBT degenerates), so in practice pass the fabric's SimClock.
func NewSession(p Prober, clock *netsim.SimClock, cfg Config) *Session {
	probe := func(a netip.Addr) (uint32, bool) {
		id, ok := p.IPIDProbe(a)
		return uint32(id), ok
	}
	return &Session{probe: probe, corroborate: true, clock: clock, cfg: cfg.withDefaults()}
}

// NewSpeedtrapSession builds a Speedtrap session over 32-bit IPv6 fragment
// identifiers, at MIDAR's default pacing. Its verdicts rest on elimination
// alone: VerifySet reports the groups the pairwise test leaves, without
// corroboration.
func NewSpeedtrapSession(p FragProber, clock *netsim.SimClock) *Session {
	return &Session{probe: p.FragIDProbe, modulus: 1 << 32, clock: clock, cfg: Config{}.withDefaults()}
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
			if id, ok := s.probe(a); ok {
				sr := out[a]
				sr.Samples = append(sr.Samples, Sample{T: s.now(), ID: id})
				sr.Modulus = s.modulus
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
