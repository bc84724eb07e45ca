package main

import (
	"math"
	"sort"
)

// pct is one latency percentile with the sample count behind it. Beyond
// counts the samples strictly above Value; a percentile is only worth
// reporting when at least ten samples lie beyond it.
type pct struct {
	Value   float64
	Samples int
	Beyond  int
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (rank p/100*(n-1)), the default of
// numpy and of most latency reports. An empty input yields the zero pct.
func percentile(xs []float64, p float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	v := s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
	beyond := n - sort.Search(n, func(i int) bool { return s[i] > v })
	return pct{Value: v, Samples: n, Beyond: beyond}
}

// median is percentile 50's value.
func median(xs []float64) float64 { return percentile(xs, 50).Value }

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
