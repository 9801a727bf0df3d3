package main

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
	// and per-resource conflicts into the registry (set by newServer).
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
	// across samples (the paper's overhead-free sample phase). Batched
	// evaluation (core.EvalBatch) interleaves whole requests, each on its
	// own machine (rankBatch) — never the samples of one.
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

// rankBatchChunk is how many batch items share one core.EvalBatch advance.
// Fixed, so the grouping, and with it every result, is a pure function of
// the request list: the same batch yields the same bytes at -workers 1 and
// -workers 8.
const rankBatchChunk = 8

// rankBatch evaluates many rank requests through shared EvalBatch advances,
// chunked at rankBatchChunk. Each request gets its own machine executing
// exactly the operation sequence rank would run — warm on the first sampled
// schedule, then each sample in draw order — and the batch interleaves those
// sequences timeslice by timeslice, which EvalBatch's equivalence contract
// guarantees is bit-identical to running each alone. Results and errors are
// per item, parallel to reqs; an error on one item (a lost counter read,
// a build failure) never touches its chunk-mates unless the shared context
// died, in which case every unfinished item reports the context error.
func (e *evaluator) rankBatch(ctx context.Context, reqs []ScheduleRequest, attempt int) ([]*ScheduleResponse, []error) {
	out := make([]*ScheduleResponse, len(reqs))
	errs := make([]error, len(reqs))
	for lo := 0; lo < len(reqs); lo += rankBatchChunk {
		hi := lo + rankBatchChunk
		if hi > len(reqs) {
			hi = len(reqs)
		}
		e.rankChunk(ctx, reqs[lo:hi], out[lo:hi], errs[lo:hi], attempt)
	}
	return out, errs
}

// rankChunkItem is one request's in-flight state inside rankChunk.
type rankChunkItem struct {
	mix     workload.Mix
	m       *core.Machine
	scheds  []schedule.Schedule
	samples []core.Sample
}

// rankChunk advances one chunk of rank evaluations together: one EvalBatch
// for every item's warm-up run, then one EvalBatch per sample round over the
// items still standing.
func (e *evaluator) rankChunk(ctx context.Context, reqs []ScheduleRequest, out []*ScheduleResponse, errs []error, attempt int) {
	items := make([]*rankChunkItem, len(reqs))
	for i, req := range reqs {
		mix, err := workload.MixByLabel(req.Mix)
		if err != nil {
			errs[i] = err
			continue
		}
		jobs, err := mix.Build(req.Seed)
		if err != nil {
			errs[i] = err
			continue
		}
		m, err := core.NewMachine(arch.Default21264(mix.SMTLevel), jobs, e.scale.SliceFor(mix))
		if err != nil {
			errs[i] = err
			continue
		}
		m.SetSimMetrics(e.sim)
		if inj := e.injectorFor(req, attempt); inj != nil {
			m.SetCounterReader(inj)
		}
		r := rng.New(rng.Hash2(req.Seed, saltSchedDraw, 0))
		items[i] = &rankChunkItem{
			mix:    mix,
			m:      m,
			scheds: schedule.Sample(r, mix.Tasks(), mix.SMTLevel, mix.Swap, req.Samples),
		}
	}

	// abort fails every item still in flight — EvalBatch.Run abandons the
	// whole batch on its first error (in practice the shared context dying),
	// so no item has a usable partial result afterwards.
	abort := func(err error) {
		for i, it := range items {
			if it != nil {
				errs[i] = err
				items[i] = nil
			}
		}
	}

	// Warm-up round: the same rotations Machine.Warm would run, one machine
	// each, interleaved.
	var wb core.EvalBatch
	warming := false
	for i, it := range items {
		if it == nil {
			continue
		}
		if _, err := wb.Add(it.m, it.scheds[0], core.WarmSlices(it.scheds[0], it.m.SliceCycles, e.scale.WarmupCycles)); err != nil {
			errs[i] = err
			items[i] = nil
			continue
		}
		warming = true
	}
	if warming {
		if _, err := wb.Run(ctx); err != nil {
			abort(err)
			return
		}
	}

	// Sample rounds: round r runs every surviving item's r-th sampled
	// schedule. An item that loses counter reads drops out of later rounds —
	// the singleton path returns at that point too, so its machine would
	// never have run them.
	maxSamples := 0
	for _, it := range items {
		if it != nil && len(it.scheds) > maxSamples {
			maxSamples = len(it.scheds)
		}
	}
	for rnd := 0; rnd < maxSamples; rnd++ {
		var eb core.EvalBatch
		var live []int
		for i, it := range items {
			if it == nil || rnd >= len(it.scheds) {
				continue
			}
			s := it.scheds[rnd]
			if _, err := eb.Add(it.m, s, s.CycleSlices()*e.scale.SampleRounds); err != nil {
				errs[i] = err
				items[i] = nil
				continue
			}
			live = append(live, i)
		}
		if len(live) == 0 {
			break
		}
		runs, err := eb.Run(ctx)
		if err != nil {
			abort(err)
			return
		}
		for j, i := range live {
			it, run := items[i], runs[j]
			if run.ReadFailures > 0 {
				errs[i] = fmt.Errorf("sample of %s lost %d counter reads: %w",
					it.scheds[rnd], run.ReadFailures, core.ErrCounterRead)
				items[i] = nil
				continue
			}
			it.samples = append(it.samples, core.NewSample(it.scheds[rnd], run))
		}
	}

	for i, it := range items {
		if it == nil {
			continue
		}
		req := reqs[i]
		order := core.Rank(it.samples, predictorNames[req.Predictor])
		resp := &ScheduleResponse{
			Mix:       req.Mix,
			Mode:      req.Mode,
			Predictor: req.Predictor,
			Seed:      req.Seed,
			Best:      it.scheds[order[0]].String(),
		}
		for _, k := range order {
			resp.Ranking = append(resp.Ranking, RankedSchedule{
				Schedule: it.scheds[k].String(),
				IPC:      it.samples[k].IPC,
			})
		}
		out[i] = resp
	}
}
