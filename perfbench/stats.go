package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// when len(xs) is even), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highPercentile returns the nearest-rank p-quantile of xs (0 < p < 1):
// the smallest sample with at least a fraction p of the samples at or
// below it.
func highPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)]
}

func rank(n int, p float64) int {
	// The epsilon keeps p*n for exact products such as 0.9*100 from
	// rounding up past the intended rank.
	return max(0, min(n-1, int(math.Ceil(p*float64(n)-1e-9))-1))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
