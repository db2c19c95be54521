package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{seq(101), 51},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestHighPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.9, 1},
		{10, 0.9, 9},
		{100, 0.9, 90},
		{101, 0.9, 91},
		{1000, 0.99, 990},
	} {
		if got := highPercentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("p%v of 1..%d = %v, want %v", tc.p*100, tc.n, got, tc.want)
		}
	}
	if got := highPercentile(nil, 0.9); got != 0 {
		t.Errorf("p90 of nothing = %v", got)
	}
	// The input is not reordered.
	xs := []float64{3, 1, 2}
	highPercentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

// TestTenBeyond pins the reporting rule: a p90 is reported only over
// at least 100 samples, which puts ten or more beyond it (a p99 would
// need 1000).
func TestTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{99, 0.9, 9},
		{100, 0.9, 10},
		{101, 0.9, 10},
		{250, 0.9, 25},
		{999, 0.99, 9},
		{1000, 0.99, 10},
	} {
		xs := seq(tc.n)
		v := highPercentile(xs, tc.p)
		past := 0
		for _, x := range xs {
			if x > v {
				past++
			}
		}
		if past != tc.want {
			t.Errorf("%d samples lie past p%v of 1..%d, want %d", past, tc.p*100, tc.n, tc.want)
		}
	}
}

// TestEndToEnd checks the per-configuration medians: with two
// configurations in a fast cluster and three in a slow one, a command's
// latency is the middle configuration's median, not the pooled median at
// the slow cluster's edge.
func TestEndToEnd(t *testing.T) {
	where := []float64{0.08, 0.08, 0.25, 0.24, 0.26}
	var recs []sessionRec
	for i := range 500 {
		cfg := i % 5
		jitter := float64(i/5%10) / 100 // 0 .. 0.09
		recs = append(recs, sessionRec{
			cfg:   cfg,
			ms:    10 * float64(cfg+1),
			walls: map[string][]float64{"where": {where[cfg] + jitter}},
		})
	}
	start := time.Unix(0, 0)
	var heap []heapSample
	for i := range 3000 { // three seconds: a 2 MiB peak in two, 8 MiB in one
		b := uint64(1 << 20)
		if i%1000 == 500 {
			b = 2 << 20
			if i > 2000 {
				b = 8 << 20
			}
		}
		heap = append(heap, heapSample{start.Add(time.Duration(i) * time.Millisecond), b})
	}
	m := endToEnd(recs, 5*time.Second, heap)
	for k, want := range map[string]float64{
		"where_ms":       0.24 + 0.045, // the middle configuration's median
		"session_ms":     30,
		"session_p90_ms": 50,
		"sessions_per_s": 100,
		"heap_peak_mb":   2,
	} {
		if math.Abs(m[k]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
	if got := len(m); got != len(e2eUnits) {
		t.Errorf("%d metrics, want %d", got, len(e2eUnits))
	}
}
