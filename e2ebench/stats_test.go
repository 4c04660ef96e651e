package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.9, 90}, // not 91: 0.9·100 must not round up
		{100, 0.5, 50},
		{101, 0.5, 51},
		{1000, 0.99, 990},
		{50, 0.8, 40},
		{1, 0.99, 1},
	} {
		if got := nearestRank(seq(c.n), c.p); got != c.want {
			t.Errorf("nearestRank(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("nearestRank of an empty sample is not NaN")
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.99, 1000}, {0.9, 100}, {0.8, 50}, {0.5, 20}} {
		n := minSamples(c.p)
		if n != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, n, c.want)
		}
		if beyond(n, c.p) < minBeyond || beyond(n-1, c.p) >= minBeyond {
			t.Errorf("p%v: %d samples leave %d beyond, %d leave %d", 100*c.p, n, beyond(n, c.p), n-1, beyond(n-1, c.p))
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}
