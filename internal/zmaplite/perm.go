// Package zmaplite is a miniature ZMap: a stateless TCP SYN scanner that
// sweeps a target population in pseudo-random order under a configurable
// packet rate. The paper's phase-1 scan ("an Internet-wide TCP scan sending a
// single SYN packet on port 22 and 179 using ZMap") maps onto this package;
// phase 2 (the application-layer service scan) lives in package zgrab.
//
// Random probe order is not cosmetic: ZMap randomises the address space so
// that no destination network sees a burst of probes, which is both an
// ethical-scanning requirement and the reason per-prefix rate limiters do not
// fire. zmaplite reproduces the same invariant with a full-cycle permutation
// of the target index space.
package zmaplite

import (
	"fmt"

	"aliaslimit/internal/xrand"
)

// Permutation enumerates 0..N-1 in a pseudo-random order, visiting every
// index exactly once. It is built from an affine full-period generator
// x' = (a·x + c) mod m (Hull–Dobell theorem: m a power of two, c odd,
// a ≡ 1 mod 4) over the next power of two ≥ N, with out-of-range values
// skipped — the classic cycle-walking construction ZMap's cyclic-group
// iteration also relies on.
type Permutation struct {
	n, m  uint64
	a, c  uint64
	state uint64
	done  uint64
}

// NewPermutation builds a permutation of [0, n) seeded by seed. n must be
// positive.
func NewPermutation(n uint64, seed uint64) (*Permutation, error) {
	if n == 0 {
		return nil, fmt.Errorf("zmaplite: empty target space")
	}
	m := uint64(1)
	for m < n {
		m <<= 1
	}
	rng := xrand.NewSplitMix64(seed)
	// Hull–Dobell: with m a power of two, any a ≡ 1 (mod 4) and odd c give
	// a full-period generator. Masking with m-1 keeps a, c in range; the
	// masks below preserve the congruence conditions for every m ≥ 1.
	a := (rng.Uint64()&(m-1))&^3 | 1
	c := rng.Uint64()&(m-1) | 1
	return &Permutation{
		n: n, m: m, a: a, c: c,
		state: rng.Uint64() & (m - 1),
	}, nil
}

// Next returns the next index and false when the cycle is exhausted.
func (p *Permutation) Next() (uint64, bool) {
	for p.done < p.m {
		v := p.state
		p.state = (p.a*p.state + p.c) & (p.m - 1)
		p.done++
		if v < p.n {
			return v, true
		}
	}
	return 0, false
}
