package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty slice). +Inf entries sort last, so a failed
// operation pushes the upper quantiles over any limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// every returns the elements of xs at the indices where keep is true.
func every(xs []float64, keep func(i int) bool) []float64 {
	var out []float64
	for i, x := range xs {
		if keep(i) {
			out = append(out, x)
		}
	}
	return out
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
