package core

import (
	"context"
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/cpu"
	"symbios/internal/parallel"
	"symbios/internal/workload"
)

// soloPoll is how many cycles a calibration core advances between context
// polls. Run(a);Run(b) is Run(a+b) by the kernel's contract, so the split
// changes no rate; it only bounds how long a cancelled calibration runs on.
const soloPoll = 100_000

// SoloRates measures each task's natural offer rate — the single-threaded
// IPC that forms the weighted-speedup denominator — one SoloRate calibration
// per job, fanned out across workers and flattened in job order. ctx bounds
// the whole calibration.
func SoloRates(ctx context.Context, cfg arch.Config, jobs []*workload.Job, seeds []uint64, warmup, measure uint64) ([]float64, error) {
	if len(jobs) != len(seeds) {
		return nil, fmt.Errorf("core: %d jobs but %d seeds", len(jobs), len(seeds))
	}
	perJob, err := parallel.Map(ctx, jobs, parallel.Options{}, func(i int, j *workload.Job) ([]float64, error) {
		return SoloRate(ctx, cfg, j, seeds[i], warmup, measure)
	})
	if err != nil {
		return nil, err
	}
	var rates []float64
	for _, solo := range perJob {
		rates = append(rates, solo...)
	}
	return rates, nil
}

// SoloRate calibrates one job: it runs alone on a fresh core (all of a
// multithreaded job's threads together, per the Section 7 extension: "the
// issue rate of the job running alone, with no other jobs in the
// coschedule") for warmup cycles to fill the caches and then measure cycles
// of observation, and returns one rate per thread.
//
// The calibration job is rebuilt from j's spec and the seed, so j is only
// read, never advanced; streams are pure functions, so the rebuilt job
// replays identically.
func SoloRate(ctx context.Context, cfg arch.Config, j *workload.Job, seed, warmup, measure uint64) ([]float64, error) {
	r, err := workload.NewJob(j.Spec, j.ID, seed)
	if err != nil {
		return nil, fmt.Errorf("core: calibrating %s: %w", j.Name(), err)
	}
	rates, err := CoRun(ctx, cfg, []*workload.Job{r}, warmup, measure)
	if err != nil {
		return nil, err
	}
	for t, rate := range rates {
		if rate <= 0 {
			return nil, fmt.Errorf("core: calibrating %s: thread %d made no progress alone", j.Name(), t)
		}
	}
	return rates, nil
}

// CoRun runs jobs together, continuously, on a fresh core: every thread of
// every job on its own context, in job order, for warmup cycles and then
// measure cycles of observation. It returns each thread's committed
// instructions per measured cycle, in the same order, and polls ctx every
// soloPoll cycles. The jobs are advanced, so each call needs fresh ones.
func CoRun(ctx context.Context, cfg arch.Config, jobs []*workload.Job, warmup, measure uint64) ([]float64, error) {
	if measure == 0 {
		return nil, fmt.Errorf("core: zero measurement interval")
	}
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	threads := 0
	for _, j := range jobs {
		if threads+j.Threads() > cfg.Contexts {
			return nil, fmt.Errorf("core: running %s: %d threads exceed %d contexts", j.Name(), threads+j.Threads(), cfg.Contexts)
		}
		for t := 0; t < j.Threads(); t++ {
			c.Attach(threads, j.Source(t), 0, j.Gate(), t)
			threads++
		}
	}
	if err := runPolled(ctx, c, warmup); err != nil {
		return nil, err
	}
	before := make([]uint64, threads)
	for t := range before {
		before[t] = c.ThreadCommitted(t)
	}
	if err := runPolled(ctx, c, measure); err != nil {
		return nil, err
	}
	rates := make([]float64, threads)
	for t := range rates {
		rates[t] = float64(c.ThreadCommitted(t)-before[t]) / float64(measure)
	}
	return rates, nil
}

// runPolled advances c by cycles, polling ctx every soloPoll cycles.
func runPolled(ctx context.Context, c *cpu.Core, cycles uint64) error {
	for cycles > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := cycles
		if n > soloPoll {
			n = soloPoll
		}
		c.Run(n)
		cycles -= n
	}
	return nil
}
