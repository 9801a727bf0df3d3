package core

import (
	"context"
	"fmt"

	"symbios/internal/metrics"
	"symbios/internal/obs"
	"symbios/internal/rng"
	"symbios/internal/schedule"
)

// Options configures an SOS run.
type Options struct {
	// Samples is the number of random schedules evaluated in the sample
	// phase (the paper uses 10, or all of them when fewer exist).
	Samples int
	// Predictor selects the dynamic predictor used to pick the symbios
	// schedule; the paper's best overall performer is Score.
	Predictor Predictor
	// SymbiosSlices is the symbios phase length in timeslices (the paper
	// runs 2 billion cycles against a ~10x shorter sample phase).
	SymbiosSlices int
	// WarmupCycles are simulated before sampling begins, so the sample
	// phase observes a warm memory system rather than coldstart artifacts
	// (the paper begins "with each benchmark partially executed"). The
	// warmup runs the first sampled schedule and performs normal work.
	WarmupCycles uint64
	// Seed drives schedule sampling.
	Seed uint64
	// Churn scripts jobmix changes for RunAdaptiveCtx and RunRoundRobinCtx,
	// applied in AtSlice order. Run, whose symbios phase is one unmonitored
	// run, refuses it.
	Churn []ChurnEvent
}

// Result reports a full SOS run.
type Result struct {
	// Samples holds the sample-phase records, in evaluation order.
	Samples []Sample
	// SampleCycles is the total length of the sample phase.
	SampleCycles uint64
	// ChosenIdx indexes Samples; Chosen is its schedule.
	ChosenIdx int
	Chosen    schedule.Schedule
	// Symbios is the symbios-phase execution of the chosen schedule.
	Symbios RunResult
	// WeightedSpeedup is WS(t) over the symbios phase, when solo rates were
	// supplied.
	WeightedSpeedup float64
}

// SamplePhase evaluates each candidate schedule for rounds full rotations
// (a rotation is the minimum interval over which every task receives equal
// CPU time) on m and returns the recorded samples in candidate order. Jobs
// make normal progress throughout — sampling is overhead-free — so the phase
// is inherently sequential: every candidate is observed on this one machine.
// A sample whose counter reads failed would rank on partial counts, so any
// lost read fails the phase with an error wrapping ErrCounterRead for the
// caller's retry layer. ctx bounds the phase as it bounds RunScheduleCtx.
func SamplePhase(ctx context.Context, m *Machine, scheds []schedule.Schedule, rounds int) ([]Sample, error) {
	if len(scheds) == 0 {
		return nil, fmt.Errorf("core: no schedules to sample")
	}
	samples := make([]Sample, 0, len(scheds))
	for _, s := range scheds {
		run, err := m.RunScheduleCtx(ctx, s, s.CycleSlices()*rounds)
		if err != nil {
			return nil, err
		}
		if run.ReadFailures > 0 {
			return nil, fmt.Errorf("sample of %s lost %d counter reads: %w", s, run.ReadFailures, ErrCounterRead)
		}
		samples = append(samples, NewSample(s, run))
	}
	return samples, nil
}

// Run executes the complete SOS pipeline on m: sample opt.Samples random
// distinct schedules, choose one with opt.Predictor, then run it for
// opt.SymbiosSlices. soloIPC, when non-nil, must hold each task's solo
// offer rate (see SoloRates) and enables the weighted-speedup report. ctx
// bounds every phase, and the tracer it carries (obs.WithTracer), if any,
// receives the phase spans sos/warmup, sos/sample, sos/optimize and
// sos/symbios.
func Run(ctx context.Context, m *Machine, y, z int, soloIPC []float64, opt Options) (Result, error) {
	if opt.Samples < 1 {
		return Result{}, fmt.Errorf("core: Samples must be >= 1")
	}
	if opt.SymbiosSlices < 1 {
		return Result{}, fmt.Errorf("core: SymbiosSlices must be >= 1")
	}
	if len(opt.Churn) > 0 {
		return Result{}, fmt.Errorf("core: Run applies no churn; use RunAdaptiveCtx")
	}
	if soloIPC != nil && len(soloIPC) != m.NumTasks() {
		return Result{}, fmt.Errorf("core: %d solo rates for %d tasks", len(soloIPC), m.NumTasks())
	}
	r := rng.New(opt.Seed)
	scheds := schedule.Sample(r, m.NumTasks(), y, z, opt.Samples)
	// Sample may return fewer schedules than requested (small spaces are
	// enumerated instead); the warmup below indexes scheds[0], so an empty
	// draw must fail here rather than crash.
	if len(scheds) == 0 {
		return Result{}, fmt.Errorf("core: schedule sampling produced no candidates for X=%d Y=%d Z=%d", m.NumTasks(), y, z)
	}

	tr := obs.TracerFrom(ctx)
	if opt.WarmupCycles > 0 {
		endWarm := tr.Span("sos/warmup", "")
		err := m.Warm(ctx, scheds[0], opt.WarmupCycles)
		endWarm()
		if err != nil {
			return Result{}, err
		}
	}

	endSample := tr.Span("sos/sample", "")
	samples, err := SamplePhase(ctx, m, scheds, 1)
	endSample()
	if err != nil {
		return Result{}, err
	}
	var sampleCycles uint64
	for _, s := range scheds {
		sampleCycles += uint64(s.CycleSlices()) * m.SliceCycles
	}

	endOpt := tr.Span("sos/optimize", "")
	idx := Pick(samples, opt.Predictor)
	chosen := samples[idx].Sched
	endOpt()

	endSym := tr.Span("sos/symbios", "")
	sym, err := m.RunScheduleCtx(ctx, chosen, opt.SymbiosSlices)
	endSym()
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Samples:      samples,
		SampleCycles: sampleCycles,
		ChosenIdx:    idx,
		Chosen:       chosen,
		Symbios:      sym,
	}
	if soloIPC != nil {
		ws, err := metrics.WeightedSpeedup(sym.Cycles, sym.Committed, soloIPC)
		if err != nil {
			return Result{}, err
		}
		res.WeightedSpeedup = ws
	}
	return res, nil
}
