package experiments

import (
	"context"
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/queueing"
	"symbios/internal/rng"
)

// ResponseRow is one bar of Figure 5 (or one point of Figure 6): the mean
// response time delivered by the naive scheduler and by SOS on an identical
// arrival sequence, and the improvement.
type ResponseRow struct {
	SMTLevel         int
	Lambda           float64 // mean interarrival in cycles
	NaiveResponse    float64
	SOSResponse      float64
	ImprovementPct   float64
	NaiveCompleted   int
	SOSCompleted     int
	MeanJobsInSystem float64 // under SOS, for Little's-law sanity checks

	// SOS's slices by kind and its abandoned sample phases (queueing.Result).
	NoChoiceSlices, IdleSlices, SampleSlices, SymbiosSlices int
	AbandonedPhases                                         int
}

// QueueScale sets the open-system experiment budgets.
type QueueScale struct {
	// Slice is the timeslice in cycles.
	Slice uint64
	// MeanJobCycles is T, the mean job length (the paper centers jobs
	// around 2B cycles; scaled here).
	MeanJobCycles float64
	// Horizon is the simulated duration per run.
	Horizon uint64
	// CalibWarmup/CalibMeasure size the one-time solo IPC calibration.
	CalibWarmup, CalibMeasure uint64
	// Seed drives script generation.
	Seed uint64
}

// DefaultQueueScale mirrors DefaultScale's 1/50 reduction.
func DefaultQueueScale() QueueScale {
	return QueueScale{
		Slice:         100_000,
		MeanJobCycles: 2_000_000,
		Horizon:       80_000_000,
		CalibWarmup:   1_500_000,
		CalibMeasure:  500_000,
		Seed:          9,
	}
}

// QuickQueueScale is the unit-test variant.
func QuickQueueScale() QueueScale {
	return QueueScale{
		Slice:         50_000,
		MeanJobCycles: 500_000,
		Horizon:       12_000_000,
		CalibWarmup:   800_000,
		CalibMeasure:  300_000,
		Seed:          9,
	}
}

// ResponseCompare runs naive and SOS schedulers on one scripted system.
// lambdaFactor scales the offered arrival rate (1.0 sits near 90% of the
// machine's solo-job-equivalent capacity, which settles the system around
// N ~= 2 x SMT level; above 1.0 the load is heavier). ctx bounds the
// calibration and both runs, at timeslice granularity.
func ResponseCompare(ctx context.Context, level int, qs QueueScale, lambdaFactor float64) (ResponseRow, error) {
	if level < 1 {
		return ResponseRow{}, fmt.Errorf("experiments: SMT level %d", level)
	}
	cfg := arch.Default21264(level)
	solo, err := queueing.CalibrateSolo(ctx, cfg, qs.CalibWarmup, qs.CalibMeasure)
	if err != nil {
		return ResponseRow{}, err
	}
	// The machine completes roughly WS solo-job-equivalents per cycle, and
	// WS grows with the multithreading level (~0.4 x level near
	// saturation). Little's law (N = lambda x R) then settles the system
	// near N ~ 2 x level when the arrival rate runs at ~90% of that
	// capacity; lambdaFactor scales the load for the Figure 6 sweep.
	capacity := 0.4 * float64(level) // solo-job equivalents per job length T
	rate := 0.9 * capacity / qs.MeanJobCycles * lambdaFactor
	interarrival := 1 / rate

	script, err := queueing.GenerateScript(rng.Hash2(qs.Seed, uint64(level), 0x5c21), interarrival, qs.MeanJobCycles, qs.Horizon, solo)
	if err != nil {
		return ResponseRow{}, err
	}

	naive, err := queueing.RunNaive(ctx, cfg, qs.Slice, script, qs.Horizon)
	if err != nil {
		return ResponseRow{}, err
	}
	opt := queueing.DefaultSOSOptions(script)
	sos, err := queueing.RunSOS(ctx, cfg, qs.Slice, script, qs.Horizon, opt)
	if err != nil {
		return ResponseRow{}, err
	}

	row := ResponseRow{
		SMTLevel:         level,
		Lambda:           interarrival,
		NaiveResponse:    naive.MeanResponse,
		SOSResponse:      sos.MeanResponse,
		NaiveCompleted:   naive.Completed,
		SOSCompleted:     sos.Completed,
		MeanJobsInSystem: sos.MeanInSystem,
		NoChoiceSlices:   sos.NoChoiceSlices,
		IdleSlices:       sos.IdleSlices,
		SampleSlices:     sos.SampleSlices,
		SymbiosSlices:    sos.SymbiosSlices,
		AbandonedPhases:  sos.AbandonedPhases,
	}
	if naive.MeanResponse > 0 {
		row.ImprovementPct = 100 * (naive.MeanResponse - sos.MeanResponse) / naive.MeanResponse
	}
	return row, nil
}

// Figure5 compares response time for SMT levels 2, 3, 4 and 6. Each level
// is a self-contained scripted system (its arrival script derives from the
// (seed, level) hash), so the levels fan out across workers. Each SMT
// level is a resumable checkpoint shard.
func Figure5(ctx context.Context, qs QueueScale) ([]ResponseRow, error) {
	return shardedMap(ctx, "fig5", []int{2, 3, 4, 6}, func(ctx context.Context, _ int, level int) (ResponseRow, error) {
		return ResponseCompare(ctx, level, qs, 1.0)
	})
}

// Figure6 sweeps the arrival rate at SMT level 3. Factors above 1 load the
// system more heavily; below 1, more lightly. Each arrival-rate factor is
// a resumable checkpoint shard.
func Figure6(ctx context.Context, qs QueueScale, factors []float64) ([]ResponseRow, error) {
	if factors == nil {
		factors = []float64{0.6, 0.8, 1.0, 1.2}
	}
	return shardedMap(ctx, "fig6", factors, func(ctx context.Context, _ int, f float64) (ResponseRow, error) {
		return ResponseCompare(ctx, 3, qs, f)
	})
}
