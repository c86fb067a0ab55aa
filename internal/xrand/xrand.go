// Package xrand provides small deterministic randomness helpers shared by the
// topology generator and the network simulator.
//
// Reproducibility is a core requirement of this repository: every experiment
// must regenerate the same tables from the same seed. The standard library's
// math/rand/v2 is seedable, but many call sites here need *stateless*
// determinism — "given this device ID and this knob name, draw a stable
// pseudo-random value" — so that adding a new draw somewhere does not perturb
// every draw after it. xrand therefore offers both:
//
//   - a seedable stream RNG (SplitMix64) for ordered generation, and
//   - stateless keyed draws (Hash64, Prob, Intn) derived from FNV-1a over the
//     key strings, for per-entity decisions.
package xrand

import (
	"math"
	"net/netip"
)

// SplitMix64 is a tiny, fast, well-distributed PRNG. It is the generator
// recommended for seeding other PRNGs and is more than adequate for driving a
// synthetic topology. The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Fork derives an independent child generator from the current state and a
// label, without advancing the parent identically for different labels.
func (s *SplitMix64) Fork(label string) *SplitMix64 {
	return NewSplitMix64(s.Uint64() ^ Hash64(label))
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash64 returns a stable 64-bit FNV-1a hash of the concatenated keys, with a
// separator byte between keys so that ("ab","c") != ("a","bc").
func Hash64(keys ...string) uint64 {
	h := uint64(fnvOffset)
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= fnvPrime
		}
		h ^= 0xff // separator
		h *= fnvPrime
	}
	// Final avalanche (from SplitMix64) so that short keys spread well.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Hash64Bytes is Hash64 over a single byte-slice key.
func Hash64Bytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Prob returns a stable pseudo-random value in [0, 1) keyed by keys.
// Typical use: xrand.Prob(deviceID, "filters-single-vantage") < 0.2.
func Prob(keys ...string) float64 {
	return float64(Hash64(keys...)>>11) / (1 << 53)
}

// Intn returns a stable pseudo-random value in [0, n) keyed by keys.
func Intn(n int, keys ...string) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(Hash64(keys...) % uint64(n))
}

// Exp returns a stable exponentially distributed value with the given mean,
// keyed by keys. Used for heavy-ish tailed size draws in the topology.
func Exp(mean float64, keys ...string) float64 {
	u := Prob(keys...)
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Zipf returns a stable Zipf-like draw in [1, max] with exponent s > 1,
// keyed by keys, using inverse-CDF sampling of a truncated Pareto. The
// Internet's per-AS size distributions are famously heavy-tailed; this is the
// work-horse for AS sizes and alias-set sizes.
func Zipf(s float64, max int, keys ...string) int {
	if max < 1 {
		return 1
	}
	u := Prob(keys...)
	// Inverse CDF of P(X<=x) ∝ 1 - x^(1-s) on [1, max].
	hi := math.Pow(float64(max), 1-s)
	x := math.Pow(1-u*(1-hi), 1/(1-s))
	k := int(x)
	if k < 1 {
		k = 1
	}
	if k > max {
		k = max
	}
	return k
}

// Hasher is the allocation-free streaming form of the keyed draws: feed it
// the same keys you would pass to Hash64/Prob — one Key* call per key — and
// Sum64/Prob return bit-identical values, without materialising any of the
// key strings. The megascale churn and fault paths use it to keep their
// per-entity draws byte-identical to the historical fmt.Sprint-built keys
// while performing zero allocations (the alloc benchmarks enforce this).
//
// The value is plain data: copy it freely to fork a common prefix, e.g. hash
// the (seed, operation, epoch) prefix once and reuse it per entity.
type Hasher struct {
	h uint64
}

// NewHasher returns a hasher with no keys written.
func NewHasher() Hasher { return Hasher{h: fnvOffset} }

// sep closes one key, exactly as Hash64 separates adjacent keys.
func (k *Hasher) sep() {
	k.h ^= 0xff
	k.h *= fnvPrime
}

// Key feeds one string key, equivalent to one element of Hash64's key list.
func (k *Hasher) Key(s string) {
	h := k.h
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	k.h = h
	k.sep()
}

// KeyBytes feeds one key given as raw bytes.
func (k *Hasher) KeyBytes(b []byte) {
	h := k.h
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	k.h = h
	k.sep()
}

// KeyUint feeds one unsigned integer key as its decimal digits — the bytes
// fmt.Sprint(v) would produce — so call sites migrating from
// Prob(fmt.Sprint(v), ...) keep their historical draw values.
func (k *Hasher) KeyUint(v uint64) {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	k.KeyBytes(buf[i:])
}

// KeyInt feeds one signed integer key as its decimal digits.
func (k *Hasher) KeyInt(v int64) {
	if v < 0 {
		k.h ^= uint64('-')
		k.h *= fnvPrime
		// Continue into the digits of the magnitude without a separator:
		// the key is the whole "-123" string.
		var buf [20]byte
		i := len(buf)
		u := uint64(-v)
		for {
			i--
			buf[i] = byte('0' + u%10)
			u /= 10
			if u == 0 {
				break
			}
		}
		k.KeyBytes(buf[i:])
		return
	}
	k.KeyUint(uint64(v))
}

// KeyAddr feeds one address key as its canonical text form — the bytes
// addr.String() would produce — staying allocation-free via a stack buffer.
func (k *Hasher) KeyAddr(a netip.Addr) {
	var buf [48]byte
	k.KeyBytes(a.AppendTo(buf[:0]))
}

// Sum64 finalises the hash with Hash64's avalanche. The hasher may keep
// accepting keys afterwards; Sum64 does not mutate it.
func (k Hasher) Sum64() uint64 {
	h := (k.h ^ (k.h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Prob returns the stable pseudo-random value in [0, 1) for the keys fed so
// far — bit-identical to Prob over the same key strings.
func (k Hasher) Prob() float64 {
	return float64(k.Sum64()>>11) / (1 << 53)
}
