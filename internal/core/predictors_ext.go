package core

import (
	"fmt"
	"math"
	"sort"
)

// Experimental predictors beyond the paper's ten. The paper notes "we
// tried several composite predictors" and that the obvious idea — weighting
// each conflict by its latency penalty — did not correlate: "conflicts only
// cause a drop in throughput if no job can make progress". These variants
// make that exploration reproducible: they are evaluated head-to-head with
// the paper's predictors by experiments.PredictorShootout, not used by SOS
// itself.
type ExtPredictor int

// The experimental predictors.
const (
	// ExtWeightedConf weights each resource's conflict percentage by a
	// latency-derived penalty (the intuition the paper tested and
	// rejected). Lower is better.
	ExtWeightedConf ExtPredictor = iota
	// ExtMispredict prefers the schedule with the lowest shared-predictor
	// mispredict rate (branch-table interference proxy).
	ExtMispredict
	// ExtMemSystem prefers the schedule with the best combined L1D/L2 hit
	// behaviour (memory-subsystem proxy).
	ExtMemSystem
	// ExtIPCBalance trades mean IPC against its timeslice variance:
	// IPC - 2*Balance. Higher is better.
	ExtIPCBalance
	// ExtRankFusion sums each schedule's rank under IPC, Sum2 and Balance
	// (a robust, scale-free cousin of Score). Lower is better.
	ExtRankFusion
	NumExtPredictors
)

// String names the experimental predictor.
func (p ExtPredictor) String() string {
	switch p {
	case ExtWeightedConf:
		return "WeightedConf"
	case ExtMispredict:
		return "Mispredict"
	case ExtMemSystem:
		return "MemSystem"
	case ExtIPCBalance:
		return "IPCBalance"
	case ExtRankFusion:
		return "RankFusion"
	}
	return fmt.Sprintf("ExtPredictor(%d)", int(p))
}

// ExtPredictors lists the experimental predictors.
func ExtPredictors() []ExtPredictor {
	ps := make([]ExtPredictor, NumExtPredictors)
	for i := range ps {
		ps[i] = ExtPredictor(i)
	}
	return ps
}

// extGoodness returns a higher-is-better value for sample i.
func extGoodness(samples []Sample, p ExtPredictor, i int) float64 {
	s := samples[i]
	switch p {
	case ExtWeightedConf:
		// Latency-weighted conflict mix: fp unit conflicts cost ~4 cycles,
		// queue conflicts stall dispatch (~2), dcache misses ~12. The paper
		// found no such weighting that beat the simple predictors.
		return -(float64(4*s.FP) + float64(2*(s.FQ+s.IQ)) + float64(12*(100-s.Dcache)))
	case ExtMispredict:
		return -s.Mispredict
	case ExtMemSystem:
		return s.Dcache + float64(0.25*s.L2Hit)
	case ExtIPCBalance:
		return s.IPC - 2*s.Balance
	case ExtRankFusion:
		return -float64(rankOf(samples, PredIPC, i) + rankOf(samples, PredSum2, i) + rankOf(samples, PredBalance, i))
	}
	panic("core: unknown experimental predictor")
}

// rankOf returns sample i's 0-based rank (0 = best) under scalar predictor
// p.
func rankOf(samples []Sample, p Predictor, i int) int {
	type kv struct {
		idx int
		g   float64
	}
	order := make([]kv, len(samples))
	for j := range samples {
		order[j] = kv{j, goodness(samples, p, j)}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].g > order[b].g })
	for r, e := range order {
		if e.idx == i {
			return r
		}
	}
	return len(samples)
}

// PickExt returns the index of the sample the experimental predictor deems
// best.
func PickExt(samples []Sample, p ExtPredictor) int {
	if len(samples) == 0 {
		panic("core: PickExt over no samples")
	}
	best := 0
	bestG := math.Inf(-1)
	for i := range samples {
		if g := extGoodness(samples, p, i); g > bestG {
			best, bestG = i, g
		}
	}
	return best
}
