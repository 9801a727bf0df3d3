package experiments

import (
	"context"
	"fmt"
	"sort"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/metrics"
	"symbios/internal/obs"
	"symbios/internal/parallel"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// MixEval is the full evaluation of one jobmix: the sampled schedules with
// their sample-phase predictor data, and each schedule's realized weighted
// speedup over a symbios-length run. Figures 1-3 and Table 3 are all views
// of this structure.
type MixEval struct {
	Mix  workload.Mix
	Cfg  arch.Config
	Solo []float64 // per task

	Scheds  []schedule.Schedule
	Samples []core.Sample
	WS      []float64 // symbios-phase WS per schedule
}

// buildJobs instantiates the mix's jobs with the evaluation's seed.
func buildJobs(m workload.Mix, seed uint64) ([]*workload.Job, []uint64, error) {
	jobs, err := m.Build(seed)
	if err != nil {
		return nil, nil, err
	}
	seeds := make([]uint64, len(jobs))
	for i := range seeds {
		seeds[i] = rng.Hash2(seed, uint64(i), 0x3017)
	}
	return jobs, seeds, nil
}

// EvalMix evaluates a registered mix under the scale: calibrate solo rates,
// sample up to MaxSamples distinct schedules on one continuously running
// machine (the overhead-free sample phase), then run every sampled schedule
// for a symbios phase on identically initialized machines and record its
// weighted speedup. Cancellation or deadline of ctx aborts between (and, at
// timeslice granularity, inside) schedule runs.
func EvalMix(ctx context.Context, label string, sc Scale) (*MixEval, error) {
	mix, err := workload.MixByLabel(label)
	if err != nil {
		return nil, err
	}
	x := mix.Tasks()
	r := rng.New(rng.Hash2(sc.Seed, 0x5a321e, 0))
	scheds := schedule.Sample(r, x, mix.SMTLevel, mix.Swap, sc.MaxSamples)
	return EvalMixSchedules(ctx, mix, scheds, sc)
}

// EvalMixSchedules is EvalMix over an explicit candidate schedule set (used
// by studies that need a stratified rather than purely random sample).
// Every simulation of the evaluation — one solo calibration per job, the
// warm-up→sample chain, one symbios run per schedule — is independent of
// the others (solo rates are only the weighted-speedup denominator), so
// they run as one fan-out over mixTasks; each task fills only its own
// result slot, and the weighted speedups are computed after the join.
//
// The mix's jobs are built once, over recorded tapes of their streams
// (workload.Job.Taped): every machine of the evaluation runs fresh
// instances of them from the same start, so each instruction is generated
// once for all of them. The tapes die with the evaluation.
func EvalMixSchedules(ctx context.Context, mix workload.Mix, scheds []schedule.Schedule, sc Scale) (*MixEval, error) {
	if len(scheds) == 0 {
		return nil, fmt.Errorf("experiments: %s: no schedules to evaluate", mix.Label)
	}
	cfg := arch.Default21264(mix.SMTLevel)
	slice := sc.sliceFor(mix)
	tr := obs.TracerFrom(ctx)

	// Calibrations only read the jobs (spec, ID, thread count):
	// core.SoloRate rebuilds its job over plain streams.
	jobs, seeds, err := buildJobs(mix, sc.Seed)
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		jobs[i] = j.Taped()
	}
	ev := &MixEval{Mix: mix, Cfg: cfg, Scheds: scheds}
	soloJob := make([][]float64, len(jobs))
	runs := make([]core.RunResult, len(scheds))

	err = parallel.ForEach(ctx, mixTasks(len(jobs), scheds, slice, sc), parallel.Options{}, func(_ int, t mixTask) error {
		switch t.kind {
		case taskCalibrate:
			defer tr.Span("sos/calibrate", mix.Label)()
			solo, err := core.SoloRate(ctx, cfg, jobs[t.idx], seeds[t.idx], sc.CalibWarmup, sc.CalibMeasure)
			if err != nil {
				return fmt.Errorf("experiments: %s: %w", mix.Label, err)
			}
			soloJob[t.idx] = solo
		case taskSample:
			// One machine, jobs progressing throughout (the overhead-free
			// sample phase), warmed on the first schedule.
			m, err := warmMachine(ctx, mix, cfg, slice, sc, jobs, scheds[0])
			if err != nil {
				return err
			}
			defer tr.Span("sos/sample", mix.Label)()
			ev.Samples, err = core.SamplePhase(ctx, m, scheds, sc.SampleRounds)
			return err
		case taskSymbios:
			res, err := symbiosRun(ctx, mix, cfg, slice, sc, jobs, scheds[t.idx])
			if err != nil {
				return err
			}
			runs[t.idx] = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, solo := range soloJob {
		ev.Solo = append(ev.Solo, solo...)
	}
	ev.WS = make([]float64, len(runs))
	for i, r := range runs {
		if ev.WS[i], err = metrics.WeightedSpeedup(r.Cycles, r.Committed, ev.Solo); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// mixTask is one independent simulation of a mix evaluation.
type mixTask struct {
	kind   int
	idx    int    // schedule (taskSymbios) or job (taskCalibrate) index
	budget uint64 // simulated cycles the task advances one core
}

const (
	taskSymbios = iota
	taskSample
	taskCalibrate
)

// mixTasks lists a mix evaluation's simulations longest first, so that at
// any worker count the long runs start early and the short ones fill the
// tail. The order is by simulated-cycle budget descending, ties broken by
// position in the list as built (symbios runs in schedule order, the sample
// chain, calibrations in job order): a pure function of mix and scale, never
// of timing, so the lowest-index error parallel reports is the same at any
// worker count.
func mixTasks(jobs int, scheds []schedule.Schedule, slice uint64, sc Scale) []mixTask {
	tasks := make([]mixTask, 0, len(scheds)+1+jobs)
	sample := mixTask{kind: taskSample, budget: uint64(core.WarmSlices(scheds[0], slice, sc.WarmupCycles)) * slice}
	for i, s := range scheds {
		rot := s.CycleSlices()
		tasks = append(tasks, mixTask{kind: taskSymbios, idx: i,
			budget: uint64(core.WarmSlices(s, slice, sc.WarmupCycles)+sc.symbiosSlices(slice, rot)) * slice})
		sample.budget += uint64(rot*sc.SampleRounds) * slice
	}
	tasks = append(tasks, sample)
	for j := 0; j < jobs; j++ {
		tasks = append(tasks, mixTask{kind: taskCalibrate, idx: j, budget: sc.CalibWarmup + sc.CalibMeasure})
	}
	sort.SliceStable(tasks, func(a, b int) bool { return tasks[a].budget > tasks[b].budget })
	return tasks
}

// EnumerateFor returns every distinct schedule of a mix (for mixes whose
// schedule space is small, like Jsb(6,3,3)'s 10).
func EnumerateFor(m workload.Mix) ([]schedule.Schedule, error) {
	return schedule.Enumerate(m.Tasks(), m.SMTLevel, m.Swap, 10_000)
}

// warmMachine builds a machine over fresh instances of jobs (the mix's
// jobs at the evaluation's seed) and warms it on s — the identical starting
// state every measured run of an evaluation begins from.
func warmMachine(ctx context.Context, mix workload.Mix, cfg arch.Config, slice uint64, sc Scale, jobs []*workload.Job, s schedule.Schedule) (*core.Machine, error) {
	fresh := make([]*workload.Job, len(jobs))
	for i, j := range jobs {
		fresh[i] = j.Fresh()
	}
	m, err := core.NewMachine(cfg, fresh, slice)
	if err != nil {
		return nil, err
	}
	defer obs.TracerFrom(ctx).Span("sos/warmup", mix.Label)()
	return m, m.Warm(ctx, s, sc.WarmupCycles)
}

// symbiosRun measures one schedule over a symbios phase on a fresh, warmed
// machine over fresh instances of jobs.
func symbiosRun(ctx context.Context, mix workload.Mix, cfg arch.Config, slice uint64, sc Scale, jobs []*workload.Job, s schedule.Schedule) (core.RunResult, error) {
	m, err := warmMachine(ctx, mix, cfg, slice, sc, jobs, s)
	if err != nil {
		return core.RunResult{}, err
	}
	defer obs.TracerFrom(ctx).Span("sos/symbios", mix.Label)()
	return m.RunScheduleCtx(ctx, s, sc.symbiosSlices(slice, s.CycleSlices()))
}

// symbiosWS is symbiosRun reduced to the schedule's weighted speedup.
func symbiosWS(ctx context.Context, mix workload.Mix, cfg arch.Config, slice uint64, sc Scale, jobs []*workload.Job, s schedule.Schedule, solo []float64) (float64, error) {
	res, err := symbiosRun(ctx, mix, cfg, slice, sc, jobs, s)
	if err != nil {
		return 0, err
	}
	return metrics.WeightedSpeedup(res.Cycles, res.Committed, solo)
}

// Best, Worst and Avg summarize the symbios weighted speedups.
func (ev *MixEval) Best() float64 { return metrics.Max(ev.WS) }

// Worst returns the lowest symbios weighted speedup observed.
func (ev *MixEval) Worst() float64 { return metrics.Min(ev.WS) }

// Avg returns the mean symbios weighted speedup — the expected throughput
// of an oblivious (random) jobscheduler.
func (ev *MixEval) Avg() float64 { return metrics.Mean(ev.WS) }

// PredictorWS returns the symbios weighted speedup of the schedule each
// predictor picks from the sample-phase data.
func (ev *MixEval) PredictorWS(p core.Predictor) float64 {
	return ev.WS[core.Pick(ev.Samples, p)]
}

// Figure1Row is one bar pair of Figure 1.
type Figure1Row struct {
	Mix          string
	Worst, Best  float64
	Avg          float64
	SpreadPct    float64 // 100*(best-worst)/worst
	OverAvgPct   float64 // 100*(best-avg)/avg
	NumSchedules int
}

// Figure1 runs the worst-versus-best weighted speedup comparison over the
// 13 jobmix / multithreading level / replacement policy combinations. Each
// mix is a resumable checkpoint shard.
func Figure1(ctx context.Context, sc Scale, labels []string) ([]Figure1Row, error) {
	if labels == nil {
		labels = workload.FigureMixes
	}
	return shardedMap(ctx, "fig1", labels, func(ctx context.Context, _ int, l string) (Figure1Row, error) {
		ev, err := EvalMixCached(ctx, l, sc)
		if err != nil {
			return Figure1Row{}, err
		}
		return Figure1Row{
			Mix:          l,
			Worst:        ev.Worst(),
			Best:         ev.Best(),
			Avg:          ev.Avg(),
			SpreadPct:    100 * (ev.Best() - ev.Worst()) / ev.Worst(),
			OverAvgPct:   100 * (ev.Best() - ev.Avg()) / ev.Avg(),
			NumSchedules: len(ev.Scheds),
		}, nil
	})
}

// Table3Row is one row of Table 3: the predictor quantities a schedule
// showed in the sample phase and its weighted speedup in the symbios phase.
type Table3Row struct {
	Schedule  string
	IPC       float64
	AllConf   float64
	Dcache    float64
	FQ        float64
	FP        float64
	Sum2      float64
	Diversity float64
	Balance   float64
	Composite float64
	WS        float64
}

// Table3 reproduces the detailed Jsb(6,3,3) study: every one of the 10
// possible schedules, fully enumerated. The MixEval holds live machine
// samples, so the study is not shard-checkpointed — only interruptible.
func Table3(ctx context.Context, sc Scale) ([]Table3Row, *MixEval, error) {
	ev, err := EvalMixCached(ctx, "Jsb(6,3,3)", sc)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]Table3Row, len(ev.Samples))
	for i, s := range ev.Samples {
		rows[i] = Table3Row{
			Schedule:  s.Sched.String(),
			IPC:       s.IPC,
			AllConf:   s.AllConf,
			Dcache:    s.Dcache,
			FQ:        s.FQ,
			FP:        s.FP,
			Sum2:      s.Sum2,
			Diversity: s.Diversity,
			Balance:   s.Balance,
			Composite: core.Composite(ev.Samples, i),
			WS:        ev.WS[i],
		}
	}
	return rows, ev, nil
}

// Figure2Bar is one bar of Figure 2 (and one group entry of Figure 3).
type Figure2Bar struct {
	Label string
	WS    float64
}

// Figure2Bars renders an evaluated mix as the Figure 2 bar list: best,
// worst and average schedule, then the schedule chosen by each predictor.
func Figure2Bars(ev *MixEval) []Figure2Bar {
	bars := []Figure2Bar{
		{Label: "Best", WS: ev.Best()},
		{Label: "Worst", WS: ev.Worst()},
		{Label: "Avg", WS: ev.Avg()},
	}
	for _, p := range core.Predictors() {
		bars = append(bars, Figure2Bar{Label: p.String(), WS: ev.PredictorWS(p)})
	}
	return bars
}

// Figure2 evaluates Jsb(6,3,3) and returns its predictor bars.
func Figure2(ctx context.Context, sc Scale) ([]Figure2Bar, error) {
	ev, err := EvalMixCached(ctx, "Jsb(6,3,3)", sc)
	if err != nil {
		return nil, err
	}
	return Figure2Bars(ev), nil
}

// Figure3Row is one group of Figure 3: a jobmix with the weighted speedup
// achieved by each predictor next to the best/worst/average schedule.
type Figure3Row struct {
	Mix  string
	Bars []Figure2Bar
}

// Figure3 runs the predictor comparison over the 13 combinations. Each mix
// is a resumable checkpoint shard.
func Figure3(ctx context.Context, sc Scale, labels []string) ([]Figure3Row, error) {
	if labels == nil {
		labels = workload.FigureMixes
	}
	return shardedMap(ctx, "fig3", labels, func(ctx context.Context, _ int, l string) (Figure3Row, error) {
		ev, err := EvalMixCached(ctx, l, sc)
		if err != nil {
			return Figure3Row{}, err
		}
		return Figure3Row{Mix: l, Bars: Figure2Bars(ev)}, nil
	})
}
