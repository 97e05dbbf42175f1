package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples: the smallest sample at or below which at least p percent
// of the samples lie. It sorts its argument in place and returns 0 for
// an empty slice, so a layer that never ran reads as 0, not as NaN.
func percentile[T float32 | float64](samples []T, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return float64(samples[rank-1])
}

// median is the 50th percentile by nearest rank.
func median(samples []float64) float64 { return percentile(samples, 50) }

// beyond counts the samples strictly above the p-th percentile: the
// number of observations a reported tail rests on.
func beyond[T float32 | float64](samples []T, p float64) int {
	v := percentile(samples, p)
	n := 0
	for _, s := range samples {
		if float64(s) > v {
			n++
		}
	}
	return n
}

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
