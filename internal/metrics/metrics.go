// Package metrics implements the paper's progress measure, weighted
// speedup, plus the small statistics helpers the predictors use.
//
// Weighted speedup over an interval t (Section 4):
//
//	WS(t) = Σ_i realizedIPC(job_i) / soloIPC(job_i)
//
// where realized IPC is the job's committed instructions divided by the
// interval's total cycles (including cycles the job was swapped out), and
// solo IPC is its natural offer rate running alone. WS of any fair or
// unfair time-shared single-threaded system is 1; values above 1 measure
// real multithreading speedup, and pathological interactions can push it
// below 1.
package metrics

import (
	"fmt"
	"math"
)

// WeightedSpeedup computes WS(t) for an interval of the given length.
// committed[i] and soloIPC[i] describe schedulable entry i. It returns an
// error when the inputs are inconsistent or a solo IPC is non-positive,
// which would make the metric meaningless.
func WeightedSpeedup(cycles uint64, committed []uint64, soloIPC []float64) (float64, error) {
	if len(committed) != len(soloIPC) {
		return 0, fmt.Errorf("metrics: %d committed counts vs %d solo rates", len(committed), len(soloIPC))
	}
	if cycles == 0 {
		return 0, fmt.Errorf("metrics: zero-length interval")
	}
	ws := 0.0
	for i, c := range committed {
		if soloIPC[i] <= 0 {
			return 0, fmt.Errorf("metrics: job %d has non-positive solo IPC %g", i, soloIPC[i])
		}
		ws += float64(c) / float64(cycles) / soloIPC[i]
	}
	return ws, nil
}

// The stat helpers below come from fault-tolerance review: IPC series can
// legitimately be empty (a window cancelled before its first slice) or
// carry NaN/Inf (a division on corrupted counter reads), and a predictor
// must degrade to a defined zero rather than panic or poison every
// downstream aggregate. Non-finite elements are skipped, and the empty
// (or all-non-finite) input yields 0.

// finite reports whether x can participate in an aggregate.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Mean returns the arithmetic mean of the finite elements of xs (0 when
// none are finite).
func Mean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if finite(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// StdDev returns the population standard deviation of the finite elements
// of xs (0 when fewer than two are finite).
func StdDev(xs []float64) float64 {
	m, n := Mean(xs), 0
	ss := 0.0
	for _, x := range xs {
		if finite(x) {
			d := x - m
			ss += float64(d * d)
			n++
		}
	}
	if n < 2 {
		return 0
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the smallest finite element of xs (0 when none are finite).
func Min(xs []float64) float64 {
	m, found := 0.0, false
	for _, x := range xs {
		if finite(x) && (!found || x < m) {
			m, found = x, true
		}
	}
	return m
}

// Max returns the largest finite element of xs (0 when none are finite).
func Max(xs []float64) float64 {
	m, found := 0.0, false
	for _, x := range xs {
		if finite(x) && (!found || x > m) {
			m, found = x, true
		}
	}
	return m
}
