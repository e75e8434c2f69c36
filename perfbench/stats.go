package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest value with at least p% of the samples
// at or below it. Nearest rank always returns a measured sample, so a tail
// percentile is one real cell's latency, never an interpolation between two.
// xs is not modified. An empty input returns NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond returns how many of n samples lie strictly above the p-th
// nearest-rank percentile when all samples are distinct.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile picks the highest of the candidate percentiles that still
// leaves at least minBeyond samples above it out of n, or 0 when none does.
// Candidates are tried from the highest down.
func tailPercentile(n int, candidates []float64, minBeyond int) float64 {
	best := 0.0
	for _, p := range candidates {
		if p > best && beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median is the 50th nearest-rank percentile, except that an even-sized
// input averages its two middle values, as a pass-level summary should.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
