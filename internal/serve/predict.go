package serve

import (
	"context"
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/experiments"
	"symbios/internal/faults"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// Per-purpose hash salts, so no two random streams in a request coincide.
const (
	saltSchedDraw = 0x50d1
	saltJobSeed   = 0x3017 // matches the experiments layer's buildJobs salt
	saltChaos     = 0x50d2
	saltAdaptive  = 0x50d3
	saltJitter    = 0x50d4
	saltDiverge   = 0x50d5
)

// evaluator answers schedule requests. Fields are read-only after New, so
// evaluations can run concurrently.
type evaluator struct {
	scale experiments.Scale
	// chaos, when non-nil, is the server-wide fault config applied to every
	// request's machine (the -chaos flag). Per-request Fault blocks override
	// it for that request.
	chaos *faults.Config
	// sim, when non-nil, aggregates every request machine's cycles, commits
	// and per-resource conflicts into the registry.
	sim *core.SimMetrics
}

// evaluate answers one decoded request. The attempt ordinal keeps retried
// evaluations deterministic: attempt k of a request always sees the same
// injector seed, so a retry sequence replays identically.
func (e *evaluator) evaluate(ctx context.Context, req ScheduleRequest, attempt int) (*ScheduleResponse, error) {
	mix, err := workload.MixByLabel(req.Mix)
	if err != nil {
		return nil, err
	}
	pred := predictorNames[req.Predictor]
	switch req.Mode {
	case "adaptive":
		return e.adaptive(ctx, req, mix, pred, attempt)
	default:
		return e.rank(ctx, req, mix, pred, attempt)
	}
}

// injectorFor builds this request's fault injector, or nil when the request
// (and the server) run clean. The injector seed folds in the attempt number
// so a retry draws a fresh — but deterministic — fault pattern.
func (e *evaluator) injectorFor(req ScheduleRequest, attempt int) *faults.Injector {
	fc := e.chaos
	if req.Fault != nil {
		fc = req.Fault
	}
	if fc == nil || !fc.Active() {
		return nil
	}
	seeded := *fc
	if seeded.Seed == 0 {
		seeded.Seed = req.Seed
	}
	seeded.Seed = rng.Hash2(seeded.Seed, uint64(attempt), saltChaos)
	return faults.New(seeded)
}

// rank runs the sample phase and returns the predictor-ranked candidates.
func (e *evaluator) rank(ctx context.Context, req ScheduleRequest, mix workload.Mix, pred core.Predictor, attempt int) (*ScheduleResponse, error) {
	cfg := arch.Default21264(mix.SMTLevel)
	slice := e.scale.SliceFor(mix)
	jobs, err := mix.Build(req.Seed)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMachine(cfg, jobs, slice)
	if err != nil {
		return nil, err
	}
	m.SetSimMetrics(e.sim)
	if inj := e.injectorFor(req, attempt); inj != nil {
		m.SetCounterReader(inj)
	}
	r := rng.New(rng.Hash2(req.Seed, saltSchedDraw, 0))
	scheds := schedule.Sample(r, mix.Tasks(), mix.SMTLevel, mix.Swap, req.Samples)
	if err := m.Warm(ctx, scheds[0], e.scale.WarmupCycles); err != nil {
		return nil, err
	}
	// The sample phase is inherently sequential: every candidate schedule
	// must be observed on this one machine, whose jobs keep progressing
	// across samples (the paper's overhead-free sample phase).
	samples := make([]core.Sample, 0, len(scheds))
	for _, s := range scheds {
		run, err := m.RunScheduleCtx(ctx, s, s.CycleSlices()*e.scale.SampleRounds)
		if err != nil {
			return nil, err
		}
		if run.ReadFailures > 0 {
			// A sample built on failed counter reads would rank on garbage;
			// surface the transient so the retry layer can redo the request.
			return nil, fmt.Errorf("sample of %s lost %d counter reads: %w",
				s, run.ReadFailures, core.ErrCounterRead)
		}
		samples = append(samples, core.NewSample(s, run))
	}
	order := core.Rank(samples, pred)
	resp := &ScheduleResponse{
		Mix:       req.Mix,
		Mode:      req.Mode,
		Predictor: req.Predictor,
		Seed:      req.Seed,
		Best:      scheds[order[0]].String(),
	}
	for _, i := range order {
		resp.Ranking = append(resp.Ranking, RankedSchedule{
			Schedule: scheds[i].String(),
			IPC:      samples[i].IPC,
		})
	}
	return resp, nil
}

// adaptive runs the full adaptive SOS scheduler and reports the realized
// weighted speedup alongside the schedule it converged on.
func (e *evaluator) adaptive(ctx context.Context, req ScheduleRequest, mix workload.Mix, pred core.Predictor, attempt int) (*ScheduleResponse, error) {
	cfg := arch.Default21264(mix.SMTLevel)
	slice := e.scale.SliceFor(mix)

	// Calibrate solo rates on clean machines: the paper's baseline is the
	// job running alone, which no fault model corrupts.
	jobs, err := mix.Build(req.Seed)
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, len(jobs))
	for i := range seeds {
		seeds[i] = rng.Hash2(req.Seed, uint64(i), saltJobSeed)
	}
	solo, err := core.SoloRates(ctx, cfg, jobs, seeds, e.scale.CalibWarmup, e.scale.CalibMeasure)
	if err != nil {
		return nil, err
	}

	jobs, err = mix.Build(req.Seed)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMachine(cfg, jobs, slice)
	if err != nil {
		return nil, err
	}
	m.SetSimMetrics(e.sim)
	if inj := e.injectorFor(req, attempt); inj != nil {
		m.SetCounterReader(inj)
	}
	symSlices := int(e.scale.SymbiosCycles / slice)
	if symSlices < 1 {
		symSlices = 1
	}
	res, err := core.RunAdaptiveCtx(ctx, m, mix.SMTLevel, mix.Swap, solo, core.AdaptiveOptions{
		Samples:       req.Samples,
		Predictor:     pred,
		SymbiosSlices: symSlices,
		WarmupCycles:  e.scale.WarmupCycles,
		Seed:          rng.Hash2(req.Seed, saltAdaptive, 0),
	})
	if err != nil {
		return nil, err
	}
	return &ScheduleResponse{
		Mix:             req.Mix,
		Mode:            req.Mode,
		Predictor:       req.Predictor,
		Seed:            req.Seed,
		WeightedSpeedup: res.WeightedSpeedup,
		Cycles:          res.Cycles,
		Resamples:       res.Resamples,
		Retries:         res.Retries,
	}, nil
}

// roundRobin is the brownout ladder's floor (mode 2): the arrival-order
// schedule with no simulation at all — a pure function of the request, so
// mode-2 answers are byte-deterministic without touching the evaluator.
func roundRobin(req ScheduleRequest) (*ScheduleResponse, error) {
	mix, err := workload.MixByLabel(req.Mix)
	if err != nil {
		return nil, err
	}
	order := make([]int, mix.Tasks())
	for i := range order {
		order[i] = i
	}
	s, err := schedule.New(order, mix.SMTLevel, mix.Swap)
	if err != nil {
		return nil, err
	}
	return &ScheduleResponse{
		Mix:       req.Mix,
		Mode:      req.Mode,
		Predictor: req.Predictor,
		Seed:      req.Seed,
		Best:      s.String(),
		Degraded:  "round-robin",
	}, nil
}
