package xrand

import (
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(123)
	b := NewSplitMix64(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	c := NewSplitMix64(124)
	same := 0
	a = NewSplitMix64(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestSplitMix64Ranges(t *testing.T) {
	s := NewSplitMix64(7)
	for i := 0; i < 1000; i++ {
		if v := s.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
}

func TestSplitMix64IntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewSplitMix64(1).Intn(0)
}

// keyed returns a hasher fed keys, one Key call each.
func keyed(keys ...string) Hasher {
	k := NewHasher()
	for _, key := range keys {
		k.Key(key)
	}
	return k
}

func TestStatelessIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Hasher.Intn(0) did not panic")
		}
	}()
	keyed("k").Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := NewSplitMix64(99)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewSplitMix64(5).Fork("x")
	b := NewSplitMix64(5).Fork("y")
	if a.Uint64() == b.Uint64() {
		t.Error("forks with different labels produced identical first values")
	}
}

func TestHash64SeparatorMatters(t *testing.T) {
	if Hash64("ab", "c") == Hash64("a", "bc") {
		t.Error(`Hash64("ab","c") == Hash64("a","bc")`)
	}
	if Hash64("x") != Hash64("x") {
		t.Error("Hash64 not deterministic")
	}
	if Hash64Bytes([]byte("abc")) == Hash64Bytes([]byte("abd")) {
		t.Error("Hash64Bytes collision on near-identical input (suspicious)")
	}
}

func TestProbRange(t *testing.T) {
	err := quick.Check(func(k string) bool {
		p := Prob(k)
		return p >= 0 && p < 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIntnRange(t *testing.T) {
	err := quick.Check(func(k string) bool {
		v := keyed(k).Intn(17)
		return v >= 0 && v < 17 && v == int(Hash64(k)%17)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestExpMeanApproximate(t *testing.T) {
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += keyed("exp-test", string(rune(i)), string(rune(i/128))).Exp(10)
	}
	mean := sum / n
	if mean < 8 || mean > 12 {
		t.Errorf("Exp(10) sample mean = %.2f, want ~10", mean)
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	const max = 1000
	counts := map[int]int{}
	small := 0
	const n = 20000
	for i := 0; i < n; i++ {
		v := keyed("zipf", string(rune(i)), string(rune(i/500))).Zipf(1.5, max)
		if v < 1 || v > max {
			t.Fatalf("Zipf out of bounds: %d", v)
		}
		counts[v]++
		if v <= 3 {
			small++
		}
	}
	// A Zipf(1.5) draw should be heavily concentrated on small values.
	if float64(small)/n < 0.5 {
		t.Errorf("Zipf not skewed: only %.1f%% of draws <= 3", 100*float64(small)/n)
	}
	if keyed("k").Zipf(1.5, 0) != 1 {
		t.Error("Zipf with max<1 should clamp to 1")
	}
}

// TestHasherMatchesProb is the byte-identity gate for the streaming hasher:
// every Key* method must reproduce exactly the draw Prob/Hash64 produce over
// the equivalent key strings, because the generated worlds (and every
// documented precision/recall number) depend on those bits.
func TestHasherMatchesProb(t *testing.T) {
	seeds := []uint64{0, 1, 42, 18446744073709551615}
	ops := []string{"wire-down", "wire-up", "epoch-renum", "reboot", "churn"}
	ids := []string{"", "core-0001", "edge-12", "r"}
	addrs := []netip.Addr{
		netip.MustParseAddr("203.0.113.7"),
		netip.MustParseAddr("198.18.0.255"),
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("2001:db8:0:7::c0ff:ee"),
		netip.MustParseAddr("::"),
	}
	for _, seed := range seeds {
		for ek := 0; ek < 3; ek++ {
			for _, op := range ops {
				for _, id := range ids {
					for _, a := range addrs {
						want := Prob(fmt.Sprint(seed), op, fmt.Sprint(ek), id, a.String())
						k := NewHasher()
						k.KeyUint(seed)
						k.Key(op)
						k.KeyInt(int64(ek))
						k.Key(id)
						k.KeyAddr(a)
						if got := k.Prob(); got != want {
							t.Fatalf("Hasher.Prob mismatch for (%d,%s,%d,%s,%s): got %v want %v",
								seed, op, ek, id, a, got, want)
						}
						if k.Sum64() != Hash64(fmt.Sprint(seed), op, fmt.Sprint(ek), id, a.String()) {
							t.Fatalf("Hasher.Sum64 mismatch for (%d,%s,%d,%s,%s)", seed, op, ek, id, a)
						}
					}
				}
			}
		}
	}
}

// TestHasherNegativeInt pins KeyInt's fmt.Sprint-compatible handling of
// negative values (the sign is part of the same key, not a separate one).
func TestHasherNegativeInt(t *testing.T) {
	for _, v := range []int64{-1, -42, -9223372036854775808} {
		k := NewHasher()
		k.KeyInt(v)
		if got, want := k.Prob(), Prob(fmt.Sprint(v)); got != want {
			t.Fatalf("KeyInt(%d): got %v want %v", v, got, want)
		}
	}
}

// TestHasherKeyBytesMatchesKey pins that string and byte forms agree.
func TestHasherKeyBytesMatchesKey(t *testing.T) {
	a := NewHasher()
	a.Key("abc")
	a.Key("")
	b := NewHasher()
	b.KeyBytes([]byte("abc"))
	b.KeyBytes(nil)
	if a.Sum64() != b.Sum64() {
		t.Fatal("Key and KeyBytes disagree")
	}
}

// TestHasherPrefixFork pins the copy-to-fork contract the churn paths rely
// on: hashing a common (seed, op, epoch) prefix once and copying the hasher
// per entity must equal hashing every key from scratch.
func TestHasherPrefixFork(t *testing.T) {
	prefix := NewHasher()
	prefix.KeyUint(7)
	prefix.Key("wire-down")
	prefix.KeyInt(2)
	for _, id := range []string{"dev-a", "dev-b"} {
		k := prefix // copy forks the prefix
		k.Key(id)
		if got, want := k.Prob(), Prob("7", "wire-down", "2", id); got != want {
			t.Fatalf("forked hasher for %s: got %v want %v", id, got, want)
		}
	}
}

// TestHasherZeroAlloc enforces the whole point: a full keyed draw — integer,
// string, and address keys included — performs zero heap allocations.
func TestHasherZeroAlloc(t *testing.T) {
	a := netip.MustParseAddr("2001:db8::42")
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		k := NewHasher()
		k.KeyUint(99)
		k.Key("wire-down")
		k.KeyInt(3)
		k.Key("device-0042")
		k.KeyAddr(a)
		sink = k.Prob()
	})
	if allocs != 0 {
		t.Fatalf("keyed draw allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// BenchmarkHasherDraw prices one full churn-style keyed draw.
func BenchmarkHasherDraw(b *testing.B) {
	a := netip.MustParseAddr("203.0.113.9")
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		k := NewHasher()
		k.KeyUint(1)
		k.Key("wire-down")
		k.KeyInt(0)
		k.Key("device-0001")
		k.KeyAddr(a)
		sink = k.Prob()
	}
	_ = sink
}

// BenchmarkProbSprintDraw prices the retired fmt.Sprint-built equivalent.
func BenchmarkProbSprintDraw(b *testing.B) {
	a := netip.MustParseAddr("203.0.113.9")
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = Prob(fmt.Sprint(uint64(1)), "wire-down", fmt.Sprint(0), "device-0001", a.String())
	}
	_ = sink
}
