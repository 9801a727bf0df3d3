package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule's support requirement: a percentile is
// reportable only when at least this many samples lie beyond it. Below
// that, the figure is one or two outliers, not a property of the system.
const minBeyond = 10

// nearestRank is the 1-based rank of the p-th percentile (0 < p <= 100)
// among n sorted samples. The epsilon keeps a product that is a whole
// number in exact arithmetic (99.99 % of 100000) from rounding up a rank.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0 for
// an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the p-th percentile.
func supported(n int, p float64) bool {
	return n > 0 && n-nearestRank(n, p) >= minBeyond
}

// tailLadder is the percentile vocabulary reports are drawn from.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// highestSupported returns the highest ladder percentile n samples support
// under the minBeyond rule, or 0 when not even the median qualifies.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the midpoint median of xs (mean of the two middle values
// for even n), or 0 for an empty sample.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
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

// quartiles returns the first and third quartile by the exclusive method
// (what Python's statistics.quantiles(xs, n=4) computes), which is how the
// acceptance check measures run-to-run spread. It needs at least two
// samples; with fewer it returns the single value twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// safeDiv returns a/b, or 0 when b is 0 — the value a per-request ratio
// takes on a workload that never exercised the layer.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
