package experiments

import (
	"context"
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/queueing"
	"symbios/internal/rng"
)

// OpenLoadRow is one cell of the open-system overload sweep: a scheduler's
// response-time distribution at one offered-load factor under one arrival
// process.
type OpenLoadRow struct {
	Dist      string  // "poisson" or "pareto"
	Factor    float64 // offered load as a fraction of machine capacity
	Scheduler string  // "naive", "sos" or "backlog-sos"

	MeanResponse float64 // cycles
	P50          float64
	P99          float64
	P999         float64
	Completed    int
	// ShrunkPhases counts backlog-shrunk sample phases (backlog-sos only).
	ShrunkPhases int
}

// openLoadPoint is one shard of the sweep: an arrival process crossed with
// an offered-load factor. All three schedulers run inside the shard on the
// identical script, so their rows are directly comparable.
type openLoadPoint struct {
	Dist   string
	Factor float64
}

// openLoadDists builds the shard's interarrival and job-size distributions.
// The Poisson system is the classical M/x open system; the Pareto system
// draws both interarrivals (alpha 1.5) and job sizes (alpha 1.1, the
// heavier tail) from bounded Pareto laws with the same means, so the two
// systems offer identical average load and differ only in burstiness.
func openLoadDists(kind string, interarrival, jobCycles float64) (inter, jobs queueing.Dist, err error) {
	switch kind {
	case "poisson":
		return queueing.ExpDist(interarrival), queueing.ExpDist(jobCycles), nil
	case "pareto":
		return queueing.BoundedParetoWithMean(1.5, 100, interarrival),
			queueing.BoundedParetoWithMean(1.1, 1000, jobCycles), nil
	default:
		return inter, jobs, fmt.Errorf("experiments: unknown arrival dist %q", kind)
	}
}

// openLoadCompare runs naive, plain SOS and backlog-aware SOS on one
// scripted open system at SMT level 3.
func openLoadCompare(ctx context.Context, pt openLoadPoint, qs QueueScale) ([]OpenLoadRow, error) {
	const level = 3
	cfg := arch.Default21264(level)
	solo, err := calibrateSolo(ctx, level, qs.CalibWarmup, qs.CalibMeasure)
	if err != nil {
		return nil, err
	}
	// Same capacity model as ResponseCompare, minus its fixed 90% derating:
	// the sweep's Factor IS the offered load relative to capacity, so 1.0
	// sits at saturation and 1.5 is genuine overload.
	capacity := 0.4 * float64(level)
	rate := pt.Factor * capacity / qs.MeanJobCycles
	interarrival := 1 / rate

	inter, jobs, err := openLoadDists(pt.Dist, interarrival, qs.MeanJobCycles)
	if err != nil {
		return nil, err
	}
	seed := rng.Hash2(qs.Seed, uint64(float64(pt.Factor*1000)), 0x01d5)
	script, err := queueing.GenerateScriptDist(seed, inter, jobs, qs.Horizon, solo)
	if err != nil {
		return nil, err
	}

	row := func(sched string, res queueing.Result) OpenLoadRow {
		return OpenLoadRow{
			Dist:         pt.Dist,
			Factor:       pt.Factor,
			Scheduler:    sched,
			MeanResponse: res.MeanResponse,
			P50:          res.ResponseP50,
			P99:          res.ResponseP99,
			P999:         res.ResponseP999,
			Completed:    res.Completed,
			ShrunkPhases: res.ShrunkPhases,
		}
	}

	naive, err := queueing.RunNaive(ctx, cfg, qs.Slice, script, qs.Horizon)
	if err != nil {
		return nil, err
	}
	opt := queueing.DefaultSOSOptions(script)
	sos, err := queueing.RunSOS(ctx, cfg, qs.Slice, script, qs.Horizon, opt)
	if err != nil {
		return nil, err
	}
	opt.BacklogFactor = 1.5
	opt.BacklogSamples = 2
	backlog, err := queueing.RunSOS(ctx, cfg, qs.Slice, script, qs.Horizon, opt)
	if err != nil {
		return nil, err
	}
	return []OpenLoadRow{row("naive", naive), row("sos", sos), row("backlog-sos", backlog)}, nil
}

// OpenLoad sweeps offered load across arrival processes and schedulers.
// A nil factors slice selects the default 0.5x-1.5x capacity sweep. Each
// (dist, factor) point is a resumable checkpoint shard.
func OpenLoad(ctx context.Context, qs QueueScale, factors []float64) ([]OpenLoadRow, error) {
	if factors == nil {
		factors = []float64{0.5, 0.75, 1.0, 1.25, 1.5}
	}
	points := make([]openLoadPoint, 0, 2*len(factors))
	for _, d := range []string{"poisson", "pareto"} {
		for _, f := range factors {
			points = append(points, openLoadPoint{Dist: d, Factor: f})
		}
	}
	rows, err := shardedMap(ctx, "openload", points, func(ctx context.Context, _ int, pt openLoadPoint) ([]OpenLoadRow, error) {
		return openLoadCompare(ctx, pt, qs)
	})
	if err != nil {
		return nil, err
	}
	out := make([]OpenLoadRow, 0, 3*len(rows))
	for _, r := range rows {
		out = append(out, r...)
	}
	return out, nil
}
