package ecdf

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAtBasics(t *testing.T) {
	e := FromInts([]int{1, 2, 2, 3, 10})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.2}, {1.5, 0.2}, {2, 0.6}, {3, 0.8}, {9.99, 0.8}, {10, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 5 {
		t.Errorf("N = %d", e.N())
	}
}

func TestEmpty(t *testing.T) {
	var e ECDF
	if e.At(5) != 0 || e.N() != 0 {
		t.Error("empty ECDF misbehaves")
	}
}

func TestMonotoneProperty(t *testing.T) {
	f := func(raw []int16, probes []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int, len(raw))
		for i, v := range raw {
			vals[i] = int(v)
		}
		e := FromInts(vals)
		ps := make([]float64, len(probes))
		for i, p := range probes {
			ps[i] = float64(p)
		}
		sort.Float64s(ps)
		prev := -1.0
		for _, x := range ps {
			y := e.At(x)
			if y < 0 || y > 1 || y < prev {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLogXPoints(t *testing.T) {
	xs := LogXPoints(4, 2)
	if xs[0] != 1 {
		t.Errorf("first point = %v", xs[0])
	}
	last := xs[len(xs)-1]
	if math.Abs(last-10000) > 1e-6 {
		t.Errorf("last point = %v, want 1e4", last)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("points not increasing at %d", i)
		}
	}
}

func TestLinearXPoints(t *testing.T) {
	xs := LinearXPoints(20, 2.5)
	if len(xs) != 9 || xs[0] != 0 || xs[len(xs)-1] != 20 {
		t.Errorf("points = %v", xs)
	}
}

func TestRenderContainsSeries(t *testing.T) {
	out := Render("Figure X", "size", []float64{1, 2},
		[]Series{{Name: "Active SSH", E: FromInts([]int{1, 2})}})
	for _, want := range []string{"Figure X", "Active SSH (n=2)", "size"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("render lines = %d, want 4", len(lines))
	}
}
