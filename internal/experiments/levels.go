package experiments

import (
	"context"
	"fmt"

	"symbios/internal/core"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// LevelRow reports the throughput study at one multithreading level.
type LevelRow struct {
	SMTLevel     int
	Best, Worst  float64
	Avg          float64
	SpreadPct    float64
	ScoreWS      float64
	ScoreGainPct float64 // Score-chosen over average
}

// twelveJobs is the paper's largest jobmix (Jsb(12,·,·)).
var twelveJobs = []string{
	"FP", "MG", "WAVE", "SWIM", "SU2COR", "TURB3D", "GCC", "GCC", "GO", "IS", "CG", "EP",
}

// ThroughputVsLevel sweeps the hardware multithreading level over the
// 12-job mix with full swap, extending the paper's observation that "the
// same effects ... will be evident with wider processors, but may happen at
// higher levels of multithreading": both the absolute weighted speedup and
// the schedule sensitivity grow with the SMT level. Each SMT level is a
// resumable checkpoint shard.
func ThroughputVsLevel(ctx context.Context, sc Scale, levels []int) ([]LevelRow, error) {
	if levels == nil {
		levels = []int{2, 3, 4, 6}
	}
	// Each level derives its own rng stream from (seed, level), so the
	// levels are independent work items.
	return shardedMap(ctx, "levels", levels, func(ctx context.Context, _ int, level int) (LevelRow, error) {
		if 12%level != 0 {
			return LevelRow{}, fmt.Errorf("experiments: level %d does not divide 12 jobs evenly", level)
		}
		mix := workload.Mix{
			Label:    fmt.Sprintf("Jsb(12,%d,%d)", level, level),
			JobNames: twelveJobs,
			SMTLevel: level,
			Swap:     level,
			BigSlice: true,
		}
		r := rng.New(rng.Hash2(sc.Seed, uint64(level), 0x1e7e1))
		scheds := schedule.Sample(r, mix.Tasks(), level, level, sc.MaxSamples)
		ev, err := EvalMixSchedules(ctx, mix, scheds, sc)
		if err != nil {
			return LevelRow{}, err
		}
		row := LevelRow{
			SMTLevel: level,
			Best:     ev.Best(),
			Worst:    ev.Worst(),
			Avg:      ev.Avg(),
			ScoreWS:  ev.PredictorWS(core.PredScore),
		}
		row.SpreadPct = 100 * (row.Best - row.Worst) / row.Worst
		row.ScoreGainPct = 100 * (row.ScoreWS - row.Avg) / row.Avg
		return row, nil
	})
}
