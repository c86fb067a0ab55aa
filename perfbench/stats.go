package main

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// samples holds one figure's measurements, each tagged with the world of
// the run's family it was taken on. A time also records when it began, so
// rescale can take the host's speed out of it; raw then keeps the times as
// measured.
type samples struct {
	vals  []float64
	world []int
	from  []time.Time
	raw   []float64
}

// add records one measurement on world w.
func (s *samples) add(w int, v float64) {
	s.vals = append(s.vals, v)
	s.world = append(s.world, w)
}

// addTime records a time d, in seconds, that began at t0 on world w.
func (s *samples) addTime(w int, t0 time.Time, d time.Duration) {
	s.add(w, d.Seconds())
	s.from = append(s.from, t0)
}

// rescale keeps the times as measured in raw and rescales vals to the
// speedometer's reference host.
func (s *samples) rescale(sp *speedometer) {
	s.raw = append([]float64(nil), s.vals...)
	for i, t0 := range s.from {
		s.vals[i] *= sp.factor(t0, t0.Add(time.Duration(s.raw[i]*float64(time.Second))))
	}
}

// stat is the printed figure of a time: the mean over worlds of each
// world's median. Averaging over the family keeps one world's size from
// deciding the figure; the daemon measures one steady state, tagged world
// 0, so its figure is the plain median.
func (s *samples) stat() float64 { return s.perWorld(median) }

// least is the printed figure of a memory peak: the mean over worlds of
// each world's least. Collection's pipe deadline timers keep an iteration's
// pipes alive for two minutes, so the memory held grows from one iteration
// to the next, and the least of each world is its first pass, which the
// length of the run does not change.
func (s *samples) least() float64 { return s.perWorld(slices.Min[[]float64]) }

// perWorld is the mean over worlds of f over each world's measurements.
func (s *samples) perWorld(f func([]float64) float64) float64 {
	by := make(map[int][]float64)
	for i, v := range s.vals {
		by[s.world[i]] = append(by[s.world[i]], v)
	}
	if len(by) == 0 {
		return 0
	}
	sum := 0.0
	for _, vs := range by {
		sum += f(vs)
	}
	return sum / float64(len(by))
}

// MarshalJSON reports the measurements in order.
func (s samples) MarshalJSON() ([]byte, error) { return json.Marshal(s.vals) }

// tailLadder is the set of percentiles a tail figure is chosen from. It
// steps by decades, so a workload's sample count, which the host's speed
// moves from run to run, stays far from a count where the choice flips: the
// daemon's 8,000 to 11,000 requests a run would straddle the 10,000 that
// p99.9 needs.
var tailLadder = []float64{50, 90, 99}

// minBeyond is how many samples must lie beyond a percentile for it to count
// as a tail figure.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// median returns the median of samples (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latency summarises one operation class: its median and its tail, the
// highest ladder percentile with at least minBeyond samples beyond it.
type latency struct {
	Count    int     `json:"count"`
	P50      float64 `json:"p50"`
	Tail     float64 `json:"tail"`
	TailPct  float64 `json:"tail_pct"`
	Beyond   int     `json:"tail_beyond"`
	Fallback bool    `json:"tail_fallback,omitempty"`
}

// summarizeLatency computes a latency summary. With fewer than 2·minBeyond
// samples no percentile qualifies; the median stands in and Fallback says so.
func summarizeLatency(xs []float64) latency {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	l := latency{Count: len(s), P50: percentile(s, 50), Tail: percentile(s, 50), TailPct: 50, Beyond: len(s) - rank(50, len(s)), Fallback: true}
	for _, p := range tailLadder {
		if beyond := len(s) - rank(p, len(s)); beyond >= minBeyond {
			l.Tail, l.TailPct, l.Beyond, l.Fallback = percentile(s, p), p, beyond, false
		}
	}
	return l
}

// book collects per-class latency samples in milliseconds from any number
// of goroutines, with when each began, so rescale can take the host's speed
// out of them.
type book struct {
	mu   sync.Mutex
	by   map[string][]float64
	from map[string][]time.Time
	raw  map[string][]float64
}

func newBook() *book {
	return &book{by: make(map[string][]float64), from: make(map[string][]time.Time), raw: make(map[string][]float64)}
}

// add records one sample of class that began at t0 and took d.
func (b *book) add(class string, t0 time.Time, d time.Duration) {
	b.mu.Lock()
	b.by[class] = append(b.by[class], float64(d)/float64(time.Millisecond))
	b.from[class] = append(b.from[class], t0)
	b.mu.Unlock()
}

// samples returns a copy of one class's samples.
func (b *book) samples(class string) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.by[class]...)
}

// rawSamples returns a copy of one class's samples as measured.
func (b *book) rawSamples(class string) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.raw[class]...)
}

// rescale keeps the samples as measured and rescales them to the
// speedometer's reference host.
func (b *book) rescale(sp *speedometer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for class, ms := range b.by {
		b.raw[class] = append([]float64(nil), ms...)
		for i, t0 := range b.from[class] {
			ms[i] *= sp.factor(t0, t0.Add(time.Duration(ms[i]*float64(time.Millisecond))))
		}
	}
}
