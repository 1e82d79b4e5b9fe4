package main

import (
	"math"
	"sort"
	"time"
)

// nowNS is the benchmark's one clock: monotonic nanoseconds.
func nowNS() int64 { return int64(time.Since(epoch)) }

var epoch = time.Now()

// percentile returns the nearest-rank p'th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// It returns 0 for an empty slice and does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile with the usual even-count midpoint, so a
// two-sample median is the mean of both rather than the lower one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// countOver counts samples strictly above limit.
func countOver(xs []float64, limit float64) int {
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return n
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles placed as Python's
// statistics.quantiles(xs, n=4) places them (exclusive method), because
// that is the rule the benchmark contract states its bounds against.
// Fewer than two samples have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i'th of the three cut points
		pos := float64(i) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
