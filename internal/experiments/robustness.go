package experiments

import (
	"context"
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/faults"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// RobustnessRow is one cell row of the robustness sweep: a jobmix under one
// fault configuration, with the weighted speedup of (a) the oblivious
// round-robin baseline, (b) the static SOS pipeline per predictor — whose
// sample phase sees the corrupted counters and whose pick is then measured on
// the clean machine, isolating how much each predictor's *choice* degrades —
// and (c) the hardened adaptive pipeline running through the same faults plus
// the churn script, with its degraded-mode activity counts.
type RobustnessRow struct {
	Mix   string
	Fault string

	// NaiveWS is the round-robin baseline over the symbios budget, following
	// the same churn script (it reads no counters, so counter faults cannot
	// touch it).
	NaiveWS float64

	// PredWS maps predictor name to the realized WS of the schedule that
	// predictor picks from the fault-injected sample phase.
	PredWS map[string]float64

	// AdaptiveWS is the hardened pipeline's WS under the same faults and
	// churn; the counters below summarize its degraded-mode decisions.
	AdaptiveWS     float64
	Resamples      int
	Retries        int
	SkippedSamples int
	FallbackSlices int
	LostWindows    int
}

// Salt labels for the per-cell seed streams.
const (
	saltRobustCell  = 0x0b57
	saltRobustFault = 0x0fa7
	saltRobustSched = 0x5a33
	saltRobustArr   = 0x0a44
)

// DefaultFaultLevels is the sweep's noise ladder: clean, rising Gaussian
// noise, and one harsh combined configuration (noise + drops + a sticky
// counter + transient read failures).
func DefaultFaultLevels() []faults.Config {
	return []faults.Config{
		{},
		{NoiseSigma: 0.05},
		{NoiseSigma: 0.10},
		{NoiseSigma: 0.20},
		{NoiseSigma: 0.40},
		{NoiseSigma: 0.20, DropRate: 0.10, StickyRate: 0.02, FailRate: 0.05},
	}
}

// DefaultRobustnessMixes keeps the sweep affordable: one small and one
// medium mix, both with fully enumerable or near-enumerable schedule spaces.
func DefaultRobustnessMixes() []string {
	return []string{"Jsb(4,2,2)", "Jsb(6,3,3)"}
}

// DefaultChurn is the single-job churn script: at the symbios midpoint the
// mix's first job departs and an IS instance arrives.
func DefaultChurn() []faults.ChurnSpec {
	return []faults.ChurnSpec{{AtFraction: 0.5, DepartJob: 0, ArriveBench: "IS"}}
}

// Robustness runs the full sweep: every mix label under every fault level.
// Cells are independent simulations seeded from (sc.Seed, cell index) and fan
// out across workers with bit-identical results at any worker count; a cell
// failure cancels the sweep's context so in-flight sibling cells abort
// instead of finishing work the sweep will discard. Each cell is a resumable
// checkpoint shard: a context carrying a checkpoint.Recorder replays
// completed cells and recomputes only the interrupted ones, byte-identically.
func Robustness(ctx context.Context, sc Scale, labels []string, levels []faults.Config, churn []faults.ChurnSpec) ([]RobustnessRow, error) {
	if labels == nil {
		labels = DefaultRobustnessMixes()
	}
	if levels == nil {
		levels = DefaultFaultLevels()
	}
	if churn == nil {
		churn = DefaultChurn()
	}
	type cell struct {
		label string
		fc    faults.Config
	}
	var cells []cell
	for _, l := range labels {
		for _, fc := range levels {
			cells = append(cells, cell{l, fc})
		}
	}
	ctx, abort := context.WithCancel(ctx)
	defer abort()
	return shardedMap(ctx, "robustness", cells, func(ctx context.Context, i int, c cell) (RobustnessRow, error) {
		row, err := runRobustnessCell(ctx, c.label, c.fc, churn, sc, rng.Hash2(sc.Seed, uint64(i), saltRobustCell))
		if err != nil {
			abort()
		}
		return row, err
	})
}

// runRobustnessCell is the cell Robustness runs: robustnessCell, replaced
// by tests that need a cell to fail or block on cue.
var runRobustnessCell = robustnessCell

// robustnessCell evaluates one (mix, fault level) pair.
func robustnessCell(ctx context.Context, label string, fc faults.Config, churn []faults.ChurnSpec, sc Scale, cellSeed uint64) (RobustnessRow, error) {
	mix, err := workload.MixByLabel(label)
	if err != nil {
		return RobustnessRow{}, err
	}
	cfg := arch.Default21264(mix.SMTLevel)
	slice := sc.sliceFor(mix)
	symSlices := int(sc.SymbiosCycles / slice)
	if symSlices < 1 {
		symSlices = 1
	}

	// Solo rates are calibrated on the clean machine — the experimenter's
	// metric must not depend on the fault level under test.
	calJobs, seeds, err := buildJobs(mix, sc.Seed)
	if err != nil {
		return RobustnessRow{}, err
	}
	solo, err := core.SoloRates(ctx, cfg, calJobs, seeds, sc.CalibWarmup, sc.CalibMeasure)
	if err != nil {
		return RobustnessRow{}, fmt.Errorf("experiments: %s: %w", label, err)
	}

	row := RobustnessRow{Mix: label, Fault: fc.String()}
	row.PredWS, err = staticPredictorWS(ctx, mix, cfg, slice, sc, fc, solo, cellSeed)
	if err != nil {
		return RobustnessRow{}, err
	}

	// The churn script is resolved once per cell; the baseline and the
	// adaptive run each get a fresh jobmix and fresh arrivals (jobs are
	// stateful) under the same budget and script.
	churnEvs, err := resolveChurn(ctx, churn, cfg, sc, symSlices, cellSeed)
	if err != nil {
		return RobustnessRow{}, err
	}
	setup := func() (*core.Machine, core.Options, error) {
		jobs, _, err := buildJobs(mix, sc.Seed)
		if err != nil {
			return nil, core.Options{}, err
		}
		m, err := core.NewMachine(cfg, jobs, slice)
		return m, core.Options{
			Samples:       sc.MaxSamples,
			Predictor:     core.PredScore,
			SymbiosSlices: symSlices,
			WarmupCycles:  sc.WarmupCycles,
			Seed:          rng.Hash2(cellSeed, 4, saltRobustSched),
			Churn:         freshChurn(churnEvs),
		}, err
	}
	m, opt, err := setup()
	if err != nil {
		return RobustnessRow{}, err
	}
	naive, err := core.RunRoundRobinCtx(ctx, m, mix.SMTLevel, solo, opt)
	if err != nil {
		return RobustnessRow{}, err
	}
	row.NaiveWS = naive.WeightedSpeedup

	if m, opt, err = setup(); err != nil {
		return RobustnessRow{}, err
	}
	if afc := fc; afc.Active() {
		afc.Seed = rng.Hash2(cellSeed, 3, saltRobustFault)
		m.SetCounterReader(faults.New(afc))
	}
	res, err := core.RunAdaptiveCtx(ctx, m, mix.SMTLevel, mix.Swap, solo, opt)
	if err != nil {
		return RobustnessRow{}, fmt.Errorf("experiments: %s under %s: %w", label, fc, err)
	}
	row.AdaptiveWS = res.WeightedSpeedup
	row.Resamples = res.Resamples
	row.Retries = res.Retries
	row.SkippedSamples = res.SkippedSamples
	row.FallbackSlices = res.FallbackSlices
	row.LostWindows = res.LostWindows
	return row, nil
}

// staticPredictorWS runs the static (non-adaptive) SOS sample phase through
// the fault injector and returns each predictor's realized symbios WS — the
// pick is made from corrupted samples, then measured on the clean machine, so
// the column shows pure prediction degradation. The static pipeline has no
// retry path: evaluations that lose counter reads are silently partial,
// exactly as a scheduler that never checks for PMU trouble would see them.
func staticPredictorWS(ctx context.Context, mix workload.Mix, cfg arch.Config, slice uint64, sc Scale, fc faults.Config, solo []float64, cellSeed uint64) (map[string]float64, error) {
	jobs, _, err := buildJobs(mix, sc.Seed)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMachine(cfg, jobs, slice)
	if err != nil {
		return nil, err
	}
	sfc := fc
	sfc.Seed = rng.Hash2(cellSeed, 1, saltRobustFault)
	if sfc.Active() {
		m.SetCounterReader(faults.New(sfc))
	}

	r := rng.New(rng.Hash2(cellSeed, 2, saltRobustSched))
	scheds := schedule.Sample(r, m.NumTasks(), mix.SMTLevel, mix.Swap, sc.MaxSamples)
	if len(scheds) == 0 {
		return nil, fmt.Errorf("experiments: no schedules for %s", mix.Label)
	}
	if err := m.Warm(ctx, scheds[0], sc.WarmupCycles); err != nil {
		return nil, err
	}
	samples := make([]core.Sample, 0, len(scheds))
	for _, s := range scheds {
		run, err := m.RunScheduleCtx(ctx, s, s.CycleSlices()*sc.SampleRounds)
		if err != nil {
			return nil, err
		}
		samples = append(samples, core.NewSample(s, run))
	}

	out := make(map[string]float64, len(core.Predictors()))
	wsBySched := map[string]float64{}
	for _, p := range core.Predictors() {
		pick := samples[core.Pick(samples, p)].Sched
		key := pick.String()
		ws, ok := wsBySched[key]
		if !ok {
			ws, err = symbiosWS(ctx, mix, cfg, slice, sc, jobs, pick, solo)
			if err != nil {
				return nil, err
			}
			wsBySched[key] = ws
		}
		out[p.String()] = ws
	}
	return out, nil
}

// resolveChurn converts fault-layer churn specs into concrete core events:
// slice ordinals from budget fractions, and instantiated, solo-calibrated
// arrival jobs. Each run of a cell takes its own copy through freshChurn.
func resolveChurn(ctx context.Context, specs []faults.ChurnSpec, cfg arch.Config, sc Scale, symSlices int, cellSeed uint64) ([]core.ChurnEvent, error) {
	var evs []core.ChurnEvent
	for i, spec := range specs {
		if spec.AtFraction <= 0 || spec.AtFraction >= 1 {
			return nil, fmt.Errorf("experiments: churn fraction %.2f outside (0, 1)", spec.AtFraction)
		}
		ev := core.ChurnEvent{AtSlice: int(spec.AtFraction * float64(symSlices))}
		if ev.AtSlice < 1 {
			ev.AtSlice = 1
		}
		if spec.DepartJob >= 0 {
			ev.Depart = []int{spec.DepartJob}
		}
		if spec.ArriveBench != "" {
			jspec, err := workload.Lookup(spec.ArriveBench)
			if err != nil {
				return nil, err
			}
			// Arrivals are single-threaded so a one-for-one swap keeps the
			// task count (and hence the schedule space shape) stable.
			jspec.Threads, jspec.SyncEvery = 1, 0
			id := 1000 + i // distinct from mix-assigned IDs (list ordinals)
			jseed := rng.Hash2(cellSeed, uint64(i), saltRobustArr)
			arr, err := workload.NewJob(jspec, id, jseed)
			if err != nil {
				return nil, err
			}
			soloArr, err := core.SoloRate(ctx, cfg, arr, jseed, sc.CalibWarmup, sc.CalibMeasure)
			if err != nil {
				return nil, err
			}
			ev.Arrive = []*workload.Job{arr}
			ev.ArriveSolo = [][]float64{soloArr}
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// freshChurn copies evs with a fresh instance of every arriving job, so
// each run of a cell sees identical arrivals without recalibrating them.
func freshChurn(evs []core.ChurnEvent) []core.ChurnEvent {
	out := make([]core.ChurnEvent, len(evs))
	for i, ev := range evs {
		out[i] = ev
		out[i].Arrive = make([]*workload.Job, len(ev.Arrive))
		for k, j := range ev.Arrive {
			out[i].Arrive[k] = j.Fresh()
		}
	}
	return out
}
