package netsim

import (
	"sync"
	"time"
)

// Clock abstracts time for the simulator. Experiments that model multi-week
// measurement campaigns (the paper's MIDAR run took three weeks; the Censys
// snapshot predates the active scan by three weeks) advance a SimClock
// manually instead of sleeping.
type Clock interface {
	// Now returns the current simulated time.
	Now() time.Time
}

// SimClock is a manually advanced clock. The zero value starts at the Unix
// epoch; use NewSimClock to pick an explicit origin. SimClock is safe for
// concurrent use.
type SimClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewSimClock returns a clock positioned at origin.
func NewSimClock(origin time.Time) *SimClock {
	return &SimClock{now: origin}
}

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d. Negative d is ignored: simulated
// time, like real time, does not run backwards.
func (c *SimClock) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// RealClock reads the wall clock. Scanners run against the real Internet use
// it; tests and experiments use SimClock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }
