package experiments

import (
	"context"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/metrics"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// ColdstartRow reports weighted speedup at one timeslice length.
type ColdstartRow struct {
	SliceCycles uint64
	WS          float64
	IPC         float64
	L1DHitPct   float64
}

// ColdstartStudy quantifies the Section 8 coldstart effect directly:
// the same Jsb(6,3,3) schedule is run at a range of timeslice lengths.
// Short timeslices pay cache and predictor coldstart on every context
// switch; as the resident timeslice grows the costs amortize and weighted
// speedup approaches its asymptote. (The warmstart policies of Section 8
// achieve the same amortization by swapping fewer jobs per slice.) Each
// timeslice length is a resumable checkpoint shard.
func ColdstartStudy(ctx context.Context, sc Scale, slices []uint64) ([]ColdstartRow, error) {
	if slices == nil {
		slices = []uint64{25_000, 50_000, 100_000, 200_000, 400_000}
	}
	mix := workload.MustMix("Jsb(6,3,3)")
	cfg := arch.Default21264(mix.SMTLevel)

	jobs, seeds, err := buildJobs(mix, sc.Seed)
	if err != nil {
		return nil, err
	}
	solo, err := core.SoloRates(ctx, cfg, jobs, seeds, sc.CalibWarmup, sc.CalibMeasure)
	if err != nil {
		return nil, err
	}
	s := schedule.Schedule{Order: []int{0, 1, 2, 3, 4, 5}, Y: mix.SMTLevel, Z: mix.Swap}

	return shardedMap(ctx, "coldstart", slices, func(ctx context.Context, _ int, slice uint64) (ColdstartRow, error) {
		res, err := symbiosRun(ctx, mix, cfg, slice, sc, jobs, s)
		if err != nil {
			return ColdstartRow{}, err
		}
		ws, err := metrics.WeightedSpeedup(res.Cycles, res.Committed, solo)
		if err != nil {
			return ColdstartRow{}, err
		}
		return ColdstartRow{
			SliceCycles: slice,
			WS:          ws,
			IPC:         res.Counters.IPC(),
			L1DHitPct:   100 * res.Counters.L1DHitRate(),
		}, nil
	})
}
