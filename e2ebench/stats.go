package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the p-quantile in a
// sample of n: ceil(p·n), with the product nudged down so that 0.9·100
// is 90, not the 91 float rounding would give.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the nearest-rank
// p-quantile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// minSamples is the smallest sample that supports the p-quantile with
// minBeyond samples above it.
func minSamples(p float64) int {
	n := 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// nearestRank is the nearest-rank p-quantile of an ascending sample.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// ascending returns a sorted copy.
func ascending(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

// quantile is nearestRank over an unsorted sample.
func quantile(x []float64, p float64) float64 { return nearestRank(ascending(x), p) }

// median is the conventional median (mean of the middle two for an even
// count), used for repeated set-up and probe timings.
func median(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := ascending(x)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is median over durations.
func medianDur(d []time.Duration) time.Duration {
	x := make([]float64, len(d))
	for i, v := range d {
		x[i] = float64(v)
	}
	return time.Duration(median(x))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
