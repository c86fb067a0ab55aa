// Package ecdf computes and renders empirical cumulative distribution
// functions — the presentation form of the paper's Figures 3–6 (addresses
// per alias set, ASes per set, sets per AS).
//
// An ECDF keeps its samples sorted, so At(x) is the exact empirical
// fraction ≤ x (no binning). Render samples one
// or more Series at a shared set of x points — LogXPoints for the paper's
// log-x axes, LinearXPoints otherwise — and draws a fixed-width ASCII plot
// with deterministic ticks: same samples, same bytes, which is how the
// figures participate in the repo-wide byte-determinism contract.
// Overlaying several measurement campaigns as Series in one plot reproduces
// the paper's protocol-vs-protocol comparisons.
package ecdf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ECDF is an empirical CDF over a sample.
type ECDF struct {
	sorted []float64
}

// New builds an ECDF from float samples.
func New(samples []float64) ECDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return ECDF{sorted: s}
}

// FromInts builds an ECDF from integer samples (set sizes, AS counts).
func FromInts(samples []int) ECDF {
	s := make([]float64, len(samples))
	for i, v := range samples {
		s[i] = float64(v)
	}
	return New(s)
}

// N returns the sample size.
func (e ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x), 0 for an empty sample.
func (e ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Series is a named ECDF for multi-curve figures.
type Series struct {
	// Name is the legend label ("Active SSH", "Censys BGP", ...).
	Name string
	// E is the distribution.
	E ECDF
}

// LogXPoints returns evaluation points 10^0..10^maxExp with perDecade
// intermediate steps — the x-axis of the paper's log-scale figures.
func LogXPoints(maxExp int, perDecade int) []float64 {
	if perDecade < 1 {
		perDecade = 1
	}
	max := math.Pow(10, float64(maxExp))
	var xs []float64
	for e := 0; e <= maxExp; e++ {
		for s := 0; s < perDecade; s++ {
			x := math.Pow(10, float64(e)+float64(s)/float64(perDecade))
			if x > max {
				break
			}
			xs = append(xs, x)
		}
	}
	if len(xs) == 0 || xs[len(xs)-1] < max {
		xs = append(xs, max)
	}
	return xs
}

// LinearXPoints returns 0..max in the given step (Figure 5's linear axis).
func LinearXPoints(max, step float64) []float64 {
	var xs []float64
	for x := 0.0; x <= max+1e-9; x += step {
		xs = append(xs, x)
	}
	return xs
}

// Render prints the curves as an aligned text table: one row per x point,
// one column per series — the data behind the figure, in a form a terminal
// (or a plotting script) can consume.
func Render(title, xLabel string, xs []float64, series []Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&sb, " %18s", fmt.Sprintf("%s (n=%d)", s.Name, s.E.N()))
	}
	sb.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&sb, "%14.6g", x)
		for _, s := range series {
			fmt.Fprintf(&sb, " %18.3f", s.E.At(x))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
