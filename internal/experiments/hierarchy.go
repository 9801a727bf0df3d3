package experiments

import (
	"context"
	"fmt"
	"strings"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/parallel"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// Figure4Row reports hierarchical symbiosis for one SMT level: SOS chooses
// both which jobs to coschedule and how many hardware contexts to devote to
// each multithreaded job (Section 7), and the chosen combination is
// compared with the average (random) and worst outcomes.
type Figure4Row struct {
	SMTLevel int
	// Configs is the number of thread-count configurations explored;
	// Candidates the total (configuration, schedule) pairs evaluated.
	Configs    int
	Candidates int
	// ChosenWS is the weighted speedup of the Score-chosen candidate.
	ChosenWS         float64
	Best, Worst, Avg float64
	OverAvgPct       float64
	OverWorstPct     float64
	// ChosenDesc names the chosen thread allocation, e.g. "mt_ARRAY=2".
	ChosenDesc string
}

// hierCandidate is one evaluated (configuration, schedule) pair.
type hierCandidate struct {
	specs  []workload.Spec
	desc   string
	sched  schedule.Schedule
	sample core.Sample
	ws     float64
}

// hierConfigs expands a job-name list into every thread-count assignment
// for its multithreaded (mt_-prefixed) jobs. Each mt job may be compiled
// for 1 or 2 threads (the paper hand-coded several multithreaded versions).
func hierConfigs(names []string) ([][]workload.Spec, []string, error) {
	base := make([]workload.Spec, len(names))
	var mtIdx []int
	for i, n := range names {
		spec, err := workload.Lookup(n)
		if err != nil {
			return nil, nil, err
		}
		base[i] = spec
		if strings.HasPrefix(n, "mt_") {
			mtIdx = append(mtIdx, i)
		}
	}
	var configs [][]workload.Spec
	var descs []string
	n := 1 << len(mtIdx)
	for bits := 0; bits < n; bits++ {
		cfg := append([]workload.Spec(nil), base...)
		var parts []string
		for b, i := range mtIdx {
			threads := 1
			if bits&(1<<b) != 0 {
				threads = 2
			}
			cfg[i] = cfg[i].WithThreads(threads)
			parts = append(parts, fmt.Sprintf("%s=%d", cfg[i].Name, threads))
		}
		configs = append(configs, cfg)
		descs = append(descs, strings.Join(parts, ","))
	}
	return configs, descs, nil
}

// buildSpecJobs instantiates a spec list as jobs with derived seeds.
func buildSpecJobs(specs []workload.Spec, seed uint64) ([]*workload.Job, []uint64, error) {
	jobs := make([]*workload.Job, len(specs))
	seeds := make([]uint64, len(specs))
	for i, spec := range specs {
		seeds[i] = rng.Hash2(seed, uint64(i), 0x3017)
		j, err := workload.NewJob(spec, i, seeds[i])
		if err != nil {
			return nil, nil, err
		}
		jobs[i] = j
	}
	return jobs, seeds, nil
}

// jobWS computes the per-job weighted speedup: each job's realized
// aggregate IPC over the interval divided by its solo aggregate rate
// ("the issue rate of the job running alone").
func jobWS(jobs []*workload.Job, committed []uint64, cycles uint64, soloAgg []float64) float64 {
	ws := 0.0
	ti := 0
	for ji, j := range jobs {
		var c uint64
		for t := 0; t < j.Threads(); t++ {
			c += committed[ti]
			ti++
		}
		ws += float64(c) / float64(cycles) / soloAgg[ji]
	}
	return ws
}

// Figure4 evaluates hierarchical symbiosis at SMT levels 2, 3, 4 and 6.
// Each level's rng stream derives from (seed, level), so the levels are
// independent work items. Each SMT level is a resumable checkpoint shard.
func Figure4(ctx context.Context, sc Scale) ([]Figure4Row, error) {
	return shardedMap(ctx, "fig4", []int{2, 3, 4, 6}, func(ctx context.Context, _ int, level int) (Figure4Row, error) {
		return hierLevel(ctx, level, sc)
	})
}

// hierLevel runs one SMT level's hierarchical study.
func hierLevel(ctx context.Context, level int, sc Scale) (Figure4Row, error) {
	names, ok := workload.HierarchicalMixes[level]
	if !ok {
		return Figure4Row{}, fmt.Errorf("experiments: no hierarchical mix for SMT level %d", level)
	}
	cfg := arch.Default21264(level)
	configs, descs, err := hierConfigs(names)
	if err != nil {
		return Figure4Row{}, err
	}
	r := rng.New(rng.Hash2(sc.Seed, uint64(level), 0xf164))

	// Phase 1 (serial): walk the configurations in order, drawing each
	// feasible configuration's schedule sample from the shared rng stream.
	// Only this walk touches r, so the draw sequence — and therefore every
	// downstream number — is identical at any worker count.
	type hierWork struct {
		specs  []workload.Spec
		desc   string
		scheds []schedule.Schedule
	}
	var work []hierWork
	for ci, specs := range configs {
		x := 0
		for _, s := range specs {
			x += s.Threads
		}
		if x < level {
			continue // cannot fill the running set
		}
		// A handful of schedules per configuration.
		const perConfig = 4
		work = append(work, hierWork{
			specs:  specs,
			desc:   descs[ci],
			scheds: schedule.Sample(r, x, level, level, perConfig),
		})
	}
	usedConfigs := len(work)

	// Phase 2 (parallel): evaluate each configuration — solo calibration
	// plus its schedule runs, every run on freshly built jobs — and flatten
	// the per-configuration candidate groups in configuration order.
	groups, err := parallel.Map(ctx, work, parallel.Options{}, func(_ int, w hierWork) ([]hierCandidate, error) {
		// Per-job solo aggregate rates for this configuration.
		jobs, seeds, err := buildSpecJobs(w.specs, sc.Seed)
		if err != nil {
			return nil, err
		}
		soloTask, err := core.SoloRates(ctx, cfg, jobs, seeds, sc.CalibWarmup, sc.CalibMeasure)
		if err != nil {
			return nil, err
		}
		soloAgg := make([]float64, len(jobs))
		ti := 0
		for ji, j := range jobs {
			for t := 0; t < j.Threads(); t++ {
				soloAgg[ji] += soloTask[ti]
				ti++
			}
		}

		return parallel.Map(ctx, w.scheds, parallel.Options{}, func(_ int, s schedule.Schedule) (hierCandidate, error) {
			jobs, _, err := buildSpecJobs(w.specs, sc.Seed)
			if err != nil {
				return hierCandidate{}, err
			}
			m, err := core.NewMachine(cfg, jobs, sc.Slice)
			if err != nil {
				return hierCandidate{}, err
			}
			if err := m.Warm(ctx, s, sc.WarmupCycles); err != nil {
				return hierCandidate{}, err
			}
			res, err := m.RunScheduleCtx(ctx, s, sc.symbiosSlices(sc.Slice, s.CycleSlices()))
			if err != nil {
				return hierCandidate{}, err
			}
			return hierCandidate{
				specs:  w.specs,
				desc:   w.desc,
				sched:  s,
				sample: core.NewSample(s, res),
				ws:     jobWS(jobs, res.Committed, res.Cycles, soloAgg),
			}, nil
		})
	})
	if err != nil {
		return Figure4Row{}, err
	}
	var cands []hierCandidate
	for _, g := range groups {
		cands = append(cands, g...)
	}
	if len(cands) == 0 {
		return Figure4Row{}, fmt.Errorf("experiments: SMT level %d: no feasible configurations", level)
	}

	samples := make([]core.Sample, len(cands))
	for i, c := range cands {
		samples[i] = c.sample
	}
	idx := core.Pick(samples, core.PredScore)

	row := Figure4Row{
		SMTLevel:   level,
		Configs:    usedConfigs,
		Candidates: len(cands),
		ChosenWS:   cands[idx].ws,
		ChosenDesc: cands[idx].desc,
		Best:       cands[0].ws,
		Worst:      cands[0].ws,
	}
	sum := 0.0
	for _, c := range cands {
		if c.ws > row.Best {
			row.Best = c.ws
		}
		if c.ws < row.Worst {
			row.Worst = c.ws
		}
		sum += c.ws
	}
	row.Avg = sum / float64(len(cands))
	row.OverAvgPct = 100 * (row.ChosenWS - row.Avg) / row.Avg
	row.OverWorstPct = 100 * (row.ChosenWS - row.Worst) / row.Worst
	return row, nil
}
