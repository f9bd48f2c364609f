package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a single outlier cannot be
// the reported tail.
const minTail = 10

// rank returns the 1-based nearest-rank position of the q-quantile among
// n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOK reports whether the q-quantile of n samples has at least minTail
// samples beyond it.
func tailOK(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minTail
}

// minSamples returns the smallest sample count whose q-quantile satisfies
// the percentile rule.
func minSamples(q float64) int {
	n := 1
	for !tailOK(n, q) {
		n++
	}
	return n
}

// percentile returns the nearest-rank q-quantile of xs, or an error when
// the percentile rule does not hold for len(xs) samples. +Inf samples
// (failed requests) sort last and count as missing any limit.
func percentile(xs []float64, q float64) (float64, error) {
	if !tailOK(len(xs), q) {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it",
			100*q, len(xs), minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
