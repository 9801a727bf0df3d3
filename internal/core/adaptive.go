package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"symbios/internal/obs"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// RoundRobin returns the naive scheduler's schedule over x entries at SMT
// level y: the identity circular order with a full swap every timeslice.
// This is the oblivious baseline the paper compares against and the
// degraded-mode schedule RunAdaptiveCtx falls back to when its predictor
// inputs cannot be trusted.
func RoundRobin(x, y int) (schedule.Schedule, error) {
	order := make([]int, x)
	for i := range order {
		order[i] = i
	}
	return schedule.New(order, y, y)
}

// ChurnEvent is one scripted jobmix change, fired between timeslices when
// the symbios phase has executed AtSlice slices. Departing jobs are named by
// ID; arriving jobs come pre-instantiated with their per-thread solo rates
// (calibration is the experiment layer's job — see faults.ChurnSpec).
type ChurnEvent struct {
	// AtSlice is the symbios-phase slice ordinal at which the event fires
	// (>= 1; slices spent in sample phases do not count).
	AtSlice int
	// Depart lists job IDs leaving the mix.
	Depart []int
	// Arrive lists jobs joining the mix, appended in order.
	Arrive []*workload.Job
	// ArriveSolo[i] holds the per-thread solo IPC of Arrive[i], for the
	// weighted-speedup accounting.
	ArriveSolo [][]float64
}

// AdaptiveOptions configures RunAdaptiveCtx. The zero value of every tuning
// field selects a sensible default, so callers set only what they study.
type AdaptiveOptions struct {
	// Samples, Predictor, SymbiosSlices, WarmupCycles and Seed mean exactly
	// what they do in Options.
	Samples       int
	Predictor     Predictor
	SymbiosSlices int
	WarmupCycles  uint64
	Seed          uint64

	// MaxSampleRetries bounds how many times a sample evaluation whose
	// counter reads failed transiently (ErrCounterRead) is retried before
	// the sample is skipped. Zero selects the default of 2; negative
	// disables retries.
	MaxSampleRetries int
	// BackoffSlices is the number of round-robin timeslices run between
	// retries, doubling per attempt (bounded backoff that still makes fair
	// forward progress). Zero selects the default of 1.
	BackoffSlices int
	// MonitorWindows splits the symbios phase into this many monitoring
	// windows; after each window the observed IPC is compared against the
	// sample phase's prediction. Zero selects the default of 8.
	MonitorWindows int
	// AnomalyTolerance is the relative IPC *shortfall* below the prediction
	// that triggers re-entry into the sample phase (the paper's periodic
	// resample, made event-driven): observed < (1-tol)·predicted. Beating
	// the prediction is not degradation — short sample rotations understate
	// steady-state IPC — so only shortfalls resample. Zero selects the
	// default of 0.3.
	AnomalyTolerance float64
	// MaxResamples bounds sample-phase re-entries (anomaly- or
	// churn-triggered); once exhausted, disruptions degrade to the
	// round-robin fallback. Zero selects the default of 3.
	MaxResamples int
	// DisableFallback turns the round-robin fallback into a hard error, for
	// ablating the degraded mode.
	DisableFallback bool
	// Churn scripts jobmix changes, applied in AtSlice order.
	Churn []ChurnEvent
}

// AdaptiveResult reports a hardened SOS run.
type AdaptiveResult struct {
	// WeightedSpeedup is WS over the whole symbios phase, cycle-weighted
	// across windows and churn segments (0 when no solo rates were given).
	WeightedSpeedup float64
	// Cycles is the measured symbios-phase length.
	Cycles uint64
	// Resamples counts re-entries into the sample phase.
	Resamples int
	// Retries counts transiently failed sample evaluations that were
	// retried.
	Retries int
	// SkippedSamples counts sample candidates abandoned after the retry
	// budget.
	SkippedSamples int
	// FallbackSlices counts symbios slices scheduled by the round-robin
	// fallback rather than a predictor pick.
	FallbackSlices int
	// LostWindows counts monitoring windows whose observation was
	// incomplete (one or more counter reads failed transiently); the work
	// and the progress accounting still count, but anomaly monitoring is
	// skipped for the window.
	LostWindows int
	// Events is a deterministic, human-readable log of every degraded-mode
	// decision (retry, skip, fallback, anomaly, churn).
	Events []string
}

// plan is the scheduling decision the symbios phase currently executes.
type plan struct {
	sched    schedule.Schedule
	predIPC  float64 // sample-phase IPC of the pick; 0 disables monitoring
	fallback bool
}

// adaptiveState carries RunAdaptiveCtx's mutable pieces through its helpers.
type adaptiveState struct {
	ctx     context.Context
	m       *Machine
	y, z    int
	opt     AdaptiveOptions
	r       *rng.Stream
	jobs    []*workload.Job
	jobSolo [][]float64 // per job, per thread; nil when no solo rates
	res     *AdaptiveResult
	warmed  bool
	tr      *obs.Tracer // from the context; nil is a free no-op
}

// RunAdaptiveCtx executes the hardened SOS pipeline on m: a sample phase
// that retries transiently failed evaluations with bounded backoff, a
// round-robin fallback when the predictor inputs are degenerate, and a
// monitored symbios phase that re-enters sampling when the observed IPC
// deviates from the prediction or the jobmix churns. solo, when non-nil,
// must hold each task's solo offer rate and enables the weighted-speedup
// report; churn arrivals extend it via ChurnEvent.ArriveSolo.
//
// Cancellation and deadlines are honoured at every timeslice, window and
// sample-evaluation boundary, returning the context's error promptly with
// the machine left consistent.
func RunAdaptiveCtx(ctx context.Context, m *Machine, y, z int, solo []float64, opt AdaptiveOptions) (AdaptiveResult, error) {
	if opt.Samples < 1 {
		return AdaptiveResult{}, fmt.Errorf("core: Samples must be >= 1")
	}
	if opt.SymbiosSlices < 1 {
		return AdaptiveResult{}, fmt.Errorf("core: SymbiosSlices must be >= 1")
	}
	if opt.MaxSampleRetries == 0 {
		opt.MaxSampleRetries = 2
	}
	if opt.BackoffSlices < 1 {
		opt.BackoffSlices = 1
	}
	if opt.MonitorWindows < 1 {
		opt.MonitorWindows = 8
	}
	if opt.AnomalyTolerance <= 0 {
		opt.AnomalyTolerance = 0.3
	}
	if opt.MaxResamples == 0 {
		opt.MaxResamples = 3
	}

	var res AdaptiveResult
	a := &adaptiveState{
		ctx: ctx,
		m:   m, y: y, z: z, opt: opt,
		r:    rng.New(opt.Seed),
		jobs: m.Jobs(),
		res:  &res,
		tr:   obs.TracerFrom(ctx),
	}
	if solo != nil {
		var err error
		a.jobSolo, err = splitSolo(a.jobs, solo)
		if err != nil {
			return res, err
		}
	}
	churn := append([]ChurnEvent(nil), opt.Churn...)
	sort.SliceStable(churn, func(i, j int) bool { return churn[i].AtSlice < churn[j].AtSlice })
	for _, ev := range churn {
		if ev.AtSlice < 1 {
			return res, fmt.Errorf("core: churn event at slice %d; events fire between slices, so AtSlice must be >= 1", ev.AtSlice)
		}
		if len(ev.Arrive) != len(ev.ArriveSolo) && a.jobSolo != nil {
			return res, fmt.Errorf("core: churn event arrives %d jobs with %d solo-rate sets", len(ev.Arrive), len(ev.ArriveSolo))
		}
	}

	p, err := a.samplePlan()
	if err != nil {
		return res, err
	}

	var (
		done      int
		num       float64 // Σ committed/solo across windows
		den       uint64  // Σ cycles across windows
		nextChurn int
	)
	for done < opt.SymbiosSlices {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		w := a.windowSlices(p.sched, opt.SymbiosSlices-done)
		if nextChurn < len(churn) && churn[nextChurn].AtSlice-done < w {
			w = churn[nextChurn].AtSlice - done
		}
		endWin := a.tr.Span("sos/symbios", "")
		run, err := m.RunScheduleCtx(ctx, p.sched, w)
		endWin()
		if err != nil {
			return res, err
		}
		if a.jobSolo != nil {
			soloTask := flattenSolo(a.jobSolo)
			for i, c := range run.Committed {
				num += float64(c) / soloTask[i]
			}
		}
		den += run.Cycles
		res.Cycles += run.Cycles
		if run.ReadFailures > 0 {
			// The work ran and its progress counts toward WS — the machine
			// does not stop because the PMU misbehaved — but the window's
			// observation is incomplete, so the anomaly monitor below must
			// not judge the schedule on partial data.
			res.LostWindows++
			a.event("window at slice %d: %d counter reads lost, monitoring skipped", done, run.ReadFailures)
		}
		done += w
		if p.fallback {
			res.FallbackSlices += w
		}

		if nextChurn < len(churn) && done >= churn[nextChurn].AtSlice {
			ev := churn[nextChurn]
			nextChurn++
			if err := a.applyChurn(ev, done); err != nil {
				return res, err
			}
			p, err = a.replan("churn")
			if err != nil {
				return res, err
			}
			continue
		}

		if run.ReadFailures == 0 && p.predIPC > 0 {
			observed := meanIPC(run.SliceIPCs)
			if observed < (1-opt.AnomalyTolerance)*p.predIPC {
				a.event("anomaly at slice %d: observed IPC %.3f below predicted %.3f", done, observed, p.predIPC)
				p, err = a.replan("anomaly")
				if err != nil {
					return res, err
				}
			}
		}
	}

	if a.jobSolo != nil && den > 0 {
		res.WeightedSpeedup = num / float64(den)
	}
	return res, nil
}

// windowSlices picks the next monitoring window length: the symbios budget
// split MonitorWindows ways, rounded to whole rotations of s so every task
// receives equal CPU time within a window, clamped to what remains.
func (a *adaptiveState) windowSlices(s schedule.Schedule, remaining int) int {
	rot := s.CycleSlices()
	w := a.opt.SymbiosSlices / a.opt.MonitorWindows
	if w < rot {
		w = rot
	} else {
		w -= w % rot
	}
	if w > remaining {
		w = remaining
	}
	if w < 1 {
		w = 1
	}
	return w
}

// event appends a deterministic log line to the result.
func (a *adaptiveState) event(format string, args ...any) {
	a.res.Events = append(a.res.Events, fmt.Sprintf(format, args...))
}

// replan re-enters the sample phase if the resample budget allows, else
// degrades to the round-robin fallback.
func (a *adaptiveState) replan(cause string) (plan, error) {
	if a.res.Resamples >= a.opt.MaxResamples {
		a.event("resample budget exhausted on %s: degrading to round-robin", cause)
		return a.fallbackPlan(fmt.Sprintf("%s after resample budget", cause))
	}
	a.res.Resamples++
	a.event("resampling on %s (%d/%d)", cause, a.res.Resamples, a.opt.MaxResamples)
	a.tr.Event("sos/resample")
	return a.samplePlan()
}

// samplePlan runs one sample phase — candidate draw, per-schedule evaluation
// with bounded-backoff retries, degenerate-input detection — and returns the
// chosen plan. The decision tree is retry → fallback; re-entry (resample) is
// the monitor loop's job.
func (a *adaptiveState) samplePlan() (plan, error) {
	x := a.m.NumTasks()
	scheds := schedule.Sample(a.r, x, a.y, a.z, a.opt.Samples)
	if len(scheds) == 0 {
		return a.fallbackPlan("no schedule candidates")
	}

	if !a.warmed && a.opt.WarmupCycles > 0 {
		a.warmed = true
		// Warmup work is unmeasured; lost counter reads during it are
		// harmless and ignored.
		endWarm := a.tr.Span("sos/warmup", "")
		err := a.m.Warm(a.ctx, scheds[0], a.opt.WarmupCycles)
		endWarm()
		if err != nil {
			return plan{}, err
		}
	}

	endSample := a.tr.Span("sos/sample", "")
	var samples []Sample
	for _, s := range scheds {
		if err := a.ctx.Err(); err != nil {
			endSample()
			return plan{}, err
		}
		sample, ok, err := a.evalWithRetry(s)
		if err != nil {
			endSample()
			return plan{}, err
		}
		if ok {
			samples = append(samples, sample)
		}
	}
	endSample()

	if len(samples) < len(scheds) {
		return a.fallbackPlan(fmt.Sprintf("only %d of %d samples evaluated", len(samples), len(scheds)))
	}
	if reason, bad := degenerateSamples(samples); bad {
		return a.fallbackPlan("degenerate samples: " + reason)
	}
	endOpt := a.tr.Span("sos/optimize", "")
	idx := Pick(samples, a.opt.Predictor)
	endOpt()
	return plan{sched: samples[idx].Sched, predIPC: samples[idx].IPC}, nil
}

// evalWithRetry evaluates one candidate schedule for a full rotation. An
// evaluation that lost any counter read is untrustworthy — the predictor
// would judge the schedule on partial counts — so it is retried with bounded,
// doubling round-robin backoff (the machine makes fair forward progress while
// waiting out the fault). ok=false means the retry budget ran out and the
// sample is skipped.
func (a *adaptiveState) evalWithRetry(s schedule.Schedule) (Sample, bool, error) {
	backoff := a.opt.BackoffSlices
	for attempt := 0; ; attempt++ {
		if err := a.ctx.Err(); err != nil {
			return Sample{}, false, err
		}
		run, err := a.m.RunScheduleCtx(a.ctx, s, s.CycleSlices())
		if err != nil {
			return Sample{}, false, err
		}
		if run.ReadFailures == 0 {
			return NewSample(s, run), true, nil
		}
		if attempt >= a.opt.MaxSampleRetries {
			a.res.SkippedSamples++
			a.event("sample %s skipped after %d transient failures", s, attempt+1)
			a.tr.Event("sos/sample-skipped")
			return Sample{}, false, nil
		}
		a.res.Retries++
		a.event("sample %s attempt %d lost %d counter reads; backing off %d slices", s, attempt+1, run.ReadFailures, backoff)
		a.tr.Event("sos/retry")
		if rr, err := RoundRobin(a.m.NumTasks(), a.y); err == nil {
			// Backoff work is unmeasured; lost reads during it are harmless,
			// and a context abort here is caught by the next poll above.
			_, _ = a.m.RunScheduleCtx(a.ctx, rr, backoff)
		}
		backoff *= 2
	}
}

// fallbackPlan degrades to the round-robin schedule, or errors when the
// caller ablated the fallback.
func (a *adaptiveState) fallbackPlan(reason string) (plan, error) {
	if a.opt.DisableFallback {
		return plan{}, fmt.Errorf("core: predictor inputs unusable (%s) and fallback disabled", reason)
	}
	rr, err := RoundRobin(a.m.NumTasks(), a.y)
	if err != nil {
		return plan{}, fmt.Errorf("core: building round-robin fallback: %w", err)
	}
	a.event("fallback to round-robin: %s", reason)
	a.tr.Event("sos/fallback")
	return plan{sched: rr, fallback: true}, nil
}

// applyChurn mutates the job list per ev and rebinds the machine.
func (a *adaptiveState) applyChurn(ev ChurnEvent, atSlice int) error {
	a.tr.Event("sos/churn")
	for _, id := range ev.Depart {
		found := false
		for i, j := range a.jobs {
			if j.ID == id {
				a.jobs = append(a.jobs[:i], a.jobs[i+1:]...)
				if a.jobSolo != nil {
					a.jobSolo = append(a.jobSolo[:i], a.jobSolo[i+1:]...)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: churn at slice %d departs unknown job %d", atSlice, id)
		}
		a.event("churn at slice %d: -job%d", atSlice, id)
	}
	for i, j := range ev.Arrive {
		a.jobs = append(a.jobs, j)
		if a.jobSolo != nil {
			if len(ev.ArriveSolo[i]) != j.Threads() {
				return fmt.Errorf("core: churn arrival %s has %d solo rates for %d threads", j.Name(), len(ev.ArriveSolo[i]), j.Threads())
			}
			a.jobSolo = append(a.jobSolo, ev.ArriveSolo[i])
		}
		a.event("churn at slice %d: +%s (job%d)", atSlice, j.Name(), j.ID)
	}
	return a.m.SetTasks(a.jobs)
}

// degenerateSamples reports whether a sample set cannot support a
// prediction: any non-finite predictor quantity, or an all-zero IPC column
// (every observation claims the machine retired nothing).
func degenerateSamples(samples []Sample) (string, bool) {
	allZero := true
	for _, s := range samples {
		for _, v := range []float64{s.IPC, s.AllConf, s.Dcache, s.FQ, s.FP, s.Sum2, s.Diversity, s.Balance} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Sprintf("non-finite predictor input for %s", s.Sched), true
			}
		}
		if s.IPC > 0 {
			allZero = false
		}
	}
	if allZero {
		return "all-zero IPC", true
	}
	return "", false
}

// splitSolo groups a per-task solo-rate vector by job.
func splitSolo(jobs []*workload.Job, solo []float64) ([][]float64, error) {
	total := 0
	for _, j := range jobs {
		total += j.Threads()
	}
	if len(solo) != total {
		return nil, fmt.Errorf("core: %d solo rates for %d tasks", len(solo), total)
	}
	out := make([][]float64, len(jobs))
	k := 0
	for i, j := range jobs {
		out[i] = append([]float64(nil), solo[k:k+j.Threads()]...)
		k += j.Threads()
	}
	return out, nil
}

// flattenSolo is the inverse of splitSolo for the current job list.
func flattenSolo(jobSolo [][]float64) []float64 {
	var out []float64
	for _, s := range jobSolo {
		out = append(out, s...)
	}
	return out
}

// meanIPC averages a window's per-slice machine IPC.
func meanIPC(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
