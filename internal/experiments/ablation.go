package experiments

import (
	"context"
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/metrics"
	"symbios/internal/parallel"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// The ablation studies probe the design choices DESIGN.md calls out: how
// many schedules the sample phase needs, how robust the predictor choice is
// to the random sample drawn, and how much the ICOUNT fetch policy
// contributes to the substrate's behaviour.

// SampleCountRow reports SOS quality as a function of the number of
// schedules sampled (the paper argues "a small sample of the possible
// schedules is sufficient to identify a good schedule quickly").
type SampleCountRow struct {
	Samples  int
	ChosenWS float64
	BestWS   float64 // best within the drawn sample
	AvgWS    float64
	Regret   float64 // (best - chosen) / best
}

// AblationSampleCount evaluates Score-predicted quality for several sample
// sizes on one mix. The schedule space must be large enough that sample
// size matters; Jsb(8,4,1) (2520 schedules) is a good subject. Each sample
// count is a resumable checkpoint shard.
func AblationSampleCount(ctx context.Context, label string, sc Scale, counts []int) ([]SampleCountRow, error) {
	if _, err := workload.MixByLabel(label); err != nil {
		return nil, err
	}
	if counts == nil {
		counts = []int{2, 5, 10, 20}
	}
	// EvalMix bypasses the process cache, so each count is an independent
	// work item (its sample draw depends only on the Scale).
	return shardedMap(ctx, "ablation-samples", counts, func(ctx context.Context, _ int, n int) (SampleCountRow, error) {
		s := sc
		s.MaxSamples = n
		ev, err := EvalMix(ctx, label, s)
		if err != nil {
			return SampleCountRow{}, err
		}
		chosen := ev.PredictorWS(core.PredScore)
		return SampleCountRow{
			Samples:  len(ev.Scheds),
			ChosenWS: chosen,
			BestWS:   ev.Best(),
			AvgWS:    ev.Avg(),
			Regret:   (ev.Best() - chosen) / ev.Best(),
		}, nil
	})
}

// SeedRow reports one random-sample draw's outcome.
type SeedRow struct {
	Seed     uint64
	ChosenWS float64
	AvgWS    float64
	GainPct  float64
}

// AblationSeeds re-draws the random schedule sample under different seeds
// and reports the Score predictor's gain over the random-scheduler
// expectation each time — the robustness of "10 random schedules is
// enough". Each seed is a resumable checkpoint shard.
func AblationSeeds(ctx context.Context, label string, sc Scale, seeds []uint64) ([]SeedRow, error) {
	if seeds == nil {
		seeds = []uint64{1, 2, 3, 4, 5}
	}
	return shardedMap(ctx, "ablation-seeds", seeds, func(ctx context.Context, _ int, seed uint64) (SeedRow, error) {
		s := sc
		s.Seed = seed
		ev, err := EvalMix(ctx, label, s)
		if err != nil {
			return SeedRow{}, err
		}
		chosen := ev.PredictorWS(core.PredScore)
		return SeedRow{
			Seed:     seed,
			ChosenWS: chosen,
			AvgWS:    ev.Avg(),
			GainPct:  100 * (chosen - ev.Avg()) / ev.Avg(),
		}, nil
	})
}

// FetchPolicyRow compares the substrate under ICOUNT versus round-robin
// fetch for one coschedule.
type FetchPolicyRow struct {
	Policy       string
	IPC          float64
	WS           float64
	SpreadBestWS float64
	SpreadWorst  float64
}

// AblationFetchPolicy runs the Jsb(6,3,3) schedule spread under both fetch
// policies. ICOUNT is expected to deliver higher throughput (it starves
// stalled threads of fetch bandwidth); the schedule-sensitivity phenomenon
// must survive under both, showing SOS does not depend on one fetch policy.
// Each fetch policy is a resumable checkpoint shard.
func AblationFetchPolicy(ctx context.Context, sc Scale) ([]FetchPolicyRow, error) {
	mix := workload.MustMix("Jsb(6,3,3)")
	scheds, err := schedule.Enumerate(mix.Tasks(), mix.SMTLevel, mix.Swap, 100)
	if err != nil {
		return nil, err
	}
	policies := []arch.FetchPolicy{arch.FetchICOUNT, arch.FetchRoundRobin}
	return shardedMap(ctx, "ablation-fetch", policies, func(ctx context.Context, _ int, policy arch.FetchPolicy) (FetchPolicyRow, error) {
		cfg := arch.Default21264(mix.SMTLevel)
		cfg.FetchPolicy = policy

		jobs, seeds, err := buildJobs(mix, sc.Seed)
		if err != nil {
			return FetchPolicyRow{}, err
		}
		solo, err := core.SoloRates(ctx, cfg, jobs, seeds, sc.CalibWarmup, sc.CalibMeasure)
		if err != nil {
			return FetchPolicyRow{}, err
		}

		type run struct{ ws, ipc float64 }
		runs, err := parallel.Map(ctx, scheds, parallel.Options{}, func(_ int, s schedule.Schedule) (run, error) {
			res, err := symbiosRun(ctx, mix, cfg, sc.Slice, sc, jobs, s)
			if err != nil {
				return run{}, err
			}
			ws, err := metrics.WeightedSpeedup(res.Cycles, res.Committed, solo)
			if err != nil {
				return run{}, err
			}
			return run{ws: ws, ipc: res.Counters.IPC()}, nil
		})
		if err != nil {
			return FetchPolicyRow{}, err
		}
		wss := make([]float64, len(runs))
		ipcs := make([]float64, len(runs))
		for i, r := range runs {
			wss[i], ipcs[i] = r.ws, r.ipc
		}
		return FetchPolicyRow{
			Policy:       policy.String(),
			IPC:          metrics.Mean(ipcs),
			WS:           metrics.Mean(wss),
			SpreadBestWS: metrics.Max(wss),
			SpreadWorst:  metrics.Min(wss),
		}, nil
	})
}

// String renders a fetch-policy row for reports.
func (r FetchPolicyRow) String() string {
	return fmt.Sprintf("%-10s mean IPC %.3f  mean WS %.3f  best %.3f  worst %.3f",
		r.Policy, r.IPC, r.WS, r.SpreadBestWS, r.SpreadWorst)
}
