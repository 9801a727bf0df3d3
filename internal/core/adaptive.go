package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

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

// The hardened controller's policy.
const (
	// sampleRetries is how often a candidate whose measurement lost
	// counter reads is measured again before it is skipped.
	sampleRetries = 2
	// backoffSlices is the round robin run before a candidate's first
	// retry; it doubles per retry, so the machine makes fair progress while
	// the fault passes.
	backoffSlices = 1
	// monitorWindows splits the symbios phase into monitoring windows.
	monitorWindows = 8
	// anomalyTolerance is the IPC shortfall below the pick's sample IPC
	// that resamples: observed < (1-tolerance)·predicted. Beating the
	// prediction is not degradation — short sample rotations understate
	// steady-state IPC — so only shortfalls resample.
	anomalyTolerance = 0.3
	// maxResamples bounds re-entries into the sample phase; once it is
	// spent, every disruption falls back to round robin.
	maxResamples = 3
)

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
}

// Each controller is a pure transition function, step, from drive's answer
// to the act it last asked for, to the next act. drive owns the Machine,
// the candidates and the pick, the warm-up, the churn script, the tracer and
// the weighted-speedup sum. A test can thus walk every event order without a
// core; DESIGN §14 tabulates the adaptive machine and the rules its
// explorer checks.

// actKind is what a controller asks drive to do next.
type actKind uint8

const (
	actStart  actKind = iota // nothing asked yet: the first event answers nothing
	actDraw                  // draw a sample phase's candidates
	actSample                // measure candidate cand for one rotation
	actPick                  // pick from the phase's samples
	actWindow                // run the plan in force for slices slices
	actDone                  // the symbios budget is spent
)

// acts is one step's request. The flags say what the step decided, for the
// tracer: a retry, a skipped candidate, a resample, a fall back to round
// robin.
type acts struct {
	kind    actKind
	cand    int  // actSample: the candidate, in draw order
	backoff int  // actSample: round-robin slices to run first, unmeasured
	slices  int  // actWindow: the window's length
	rr      bool // actWindow: run round robin rather than the pick

	retry, skipped, resample, fallback bool
}

// event is drive's answer to the act it performed.
type event struct {
	n          int     // actDraw: the candidates drawn
	lost       bool    // actSample, actWindow: the run lost counter reads
	degenerate bool    // actPick: the samples cannot support a prediction
	ipc        float64 // actPick: the pick's sample IPC; actWindow: the observed mean IPC
	slices     int     // actWindow: the slices run, fewer than asked when churn is due
	churned    bool    // actWindow: the jobmix changed at its end
	tasks      int     // actWindow: the task count after it
}

// rrState is the oblivious baseline: round robin for the whole budget, one
// window per churn segment, never a sample.
type rrState struct{ budget, done int }

func (s rrState) step(e event) (rrState, acts) {
	s.done += e.slices
	if s.done >= s.budget {
		return s, acts{kind: actDone}
	}
	return s, acts{kind: actWindow, slices: s.budget - s.done, rr: true}
}

// adaptiveState is everything the hardened controller decides by. last is
// the act the next event answers; while sampling, n candidates were drawn,
// last.cand is being measured after attempt failed measurements, and short
// records a skipped one. In symbios the plan in force is round robin (rr)
// or the pick, whose sample IPC pred the monitor holds windows to.
type adaptiveState struct {
	y, z, budget int // fixed for the run
	tasks, done  int // the machine's tasks, and the symbios slices run
	last         acts
	n, attempt   int
	short, rr    bool
	pred         float64
	res          AdaptiveResult // the degraded-mode counts
}

func (s adaptiveState) step(e event) (adaptiveState, acts) {
	var a acts
	switch s.last.kind {
	case actStart:
		a.kind = actDraw
	case actDraw:
		s.n, s.short = e.n, false
		a = s.next(0)
	case actSample:
		switch {
		case !e.lost:
			a = s.next(s.last.cand + 1)
		case s.attempt < sampleRetries:
			s.attempt++
			s.res.Retries++
			a = acts{kind: actSample, cand: s.last.cand, backoff: backoffSlices << (s.attempt - 1), retry: true}
		default:
			s.res.SkippedSamples++
			s.short = true
			a = s.next(s.last.cand + 1)
			a.skipped = true
		}
	case actPick:
		if e.degenerate {
			a = s.fallback()
		} else {
			s.rr, s.pred = false, e.ipc
			a = s.window()
		}
	case actWindow:
		s.done += e.slices
		s.tasks = e.tasks
		if s.rr {
			s.res.FallbackSlices += e.slices
		}
		if e.lost {
			s.res.LostWindows++
		}
		switch {
		case s.done >= s.budget:
			a.kind = actDone
		// A window with lost reads is not judged: its IPC is partial.
		case e.churned || !e.lost && s.pred > 0 && e.ipc < (1-anomalyTolerance)*s.pred:
			a = s.replan()
		default:
			a = s.window()
		}
	}
	s.last = a
	return s, a
}

// next measures candidate i or, when every candidate has had its turn,
// ends the phase: a phase that skipped one falls back, any other picks.
func (s *adaptiveState) next(i int) acts {
	s.attempt = 0
	switch {
	case i < s.n:
		return acts{kind: actSample, cand: i}
	case s.short:
		return s.fallback()
	}
	return acts{kind: actPick}
}

// replan re-enters the sample phase while the resample budget lasts, and
// falls back to round robin after.
func (s *adaptiveState) replan() acts {
	if s.res.Resamples >= maxResamples {
		return s.fallback()
	}
	s.res.Resamples++
	return acts{kind: actDraw, resample: true}
}

func (s *adaptiveState) fallback() acts {
	s.rr, s.pred = true, 0
	a := s.window()
	a.fallback = true
	return a
}

// window is the next monitoring window of the plan in force: the budget
// split monitorWindows ways, in whole rotations so every task receives
// equal CPU time within it, clamped to what remains.
func (s *adaptiveState) window() acts {
	z := s.z
	if s.rr {
		z = s.y
	}
	rot := schedule.Rotation(s.tasks, z)
	w := s.budget / monitorWindows
	if w < rot {
		w = rot
	} else {
		w -= w % rot
	}
	return acts{kind: actWindow, slices: min(w, s.budget-s.done), rr: s.rr}
}

// RunAdaptiveCtx executes the hardened SOS pipeline on m: a sample phase
// that retries transiently failed evaluations with bounded backoff, a
// round-robin fallback when the predictor inputs are degenerate, and a
// monitored symbios phase that re-enters sampling when the observed IPC
// falls short of the prediction or the jobmix churns (opt.Churn). solo,
// when non-nil, must hold each task's solo offer rate and enables the
// weighted-speedup report; churn arrivals extend it via
// ChurnEvent.ArriveSolo.
//
// Cancellation and deadlines are honoured at every timeslice, returning the
// context's error promptly with the machine left consistent. The tracer in
// ctx, if any, receives the phase spans and the point events sos/retry,
// sos/sample-skipped, sos/resample, sos/fallback and sos/churn.
func RunAdaptiveCtx(ctx context.Context, m *Machine, y, z int, solo []float64, opt Options) (AdaptiveResult, error) {
	if opt.Samples < 1 {
		return AdaptiveResult{}, fmt.Errorf("core: Samples must be >= 1")
	}
	s := adaptiveState{y: y, z: z, budget: opt.SymbiosSlices, tasks: m.NumTasks()}
	res, err := drive(ctx, m, y, z, solo, opt, func(e event) (a acts) {
		s, a = s.step(e)
		return a
	})
	out := s.res
	out.WeightedSpeedup, out.Cycles = res.WeightedSpeedup, res.Cycles
	return out, err
}

// RunRoundRobinCtx runs the oblivious baseline through the same driver:
// round robin for opt.SymbiosSlices, through opt.Churn, warmed and measured
// as RunAdaptiveCtx is. It reads no counter for a decision, so counter
// faults cannot touch it; it reports WeightedSpeedup and Cycles only.
func RunRoundRobinCtx(ctx context.Context, m *Machine, y int, solo []float64, opt Options) (AdaptiveResult, error) {
	s := rrState{budget: opt.SymbiosSlices}
	return drive(ctx, m, y, y, solo, opt, func(e event) (a acts) {
		s, a = s.step(e)
		return a
	})
}

// drive runs one controller on m: the loop RunAdaptiveCtx and
// RunRoundRobinCtx share. It performs each act step asks for and answers it
// with one event. The first act that runs the machine warms it with its own
// schedule; every churn event due at a window's end applies before step
// hears of the window, so coincident events cost one replan. WS sums
// committed/solo window by window, task by task, over the windows' cycles.
func drive(ctx context.Context, m *Machine, y, z int, solo []float64, opt Options, step func(event) acts) (AdaptiveResult, error) {
	if opt.SymbiosSlices < 1 {
		return AdaptiveResult{}, fmt.Errorf("core: SymbiosSlices must be >= 1")
	}
	if solo != nil && len(solo) != m.NumTasks() {
		return AdaptiveResult{}, fmt.Errorf("core: %d solo rates for %d tasks", len(solo), m.NumTasks())
	}
	churn := slices.Clone(opt.Churn)
	slices.SortStableFunc(churn, func(a, b ChurnEvent) int { return cmp.Compare(a.AtSlice, b.AtSlice) })
	for _, ev := range churn {
		if ev.AtSlice < 1 {
			return AdaptiveResult{}, fmt.Errorf("core: churn event at slice %d; events fire between slices, so AtSlice must be >= 1", ev.AtSlice)
		}
		if len(ev.Arrive) != len(ev.ArriveSolo) && solo != nil {
			return AdaptiveResult{}, fmt.Errorf("core: churn event arrives %d jobs with %d solo-rate sets", len(ev.Arrive), len(ev.ArriveSolo))
		}
	}

	var (
		res       AdaptiveResult
		num       float64 // Σ committed/solo
		done      int     // symbios slices run
		r         = rng.New(opt.Seed)
		tr        = obs.TracerFrom(ctx)
		cands     []schedule.Schedule
		samples   []Sample
		pick      schedule.Schedule
		warmed    bool
		endSample func() // set while a sample phase runs
		e         event
	)
	defer func() {
		if endSample != nil {
			endSample()
		}
	}()
	warm := func(s schedule.Schedule) error {
		if warmed || opt.WarmupCycles == 0 {
			return nil
		}
		warmed = true
		defer tr.Span("sos/warmup", "")()
		return m.Warm(ctx, s, opt.WarmupCycles)
	}
	for {
		a := step(e)
		e = event{}
		if a.retry {
			tr.Event("sos/retry")
		}
		if a.skipped {
			tr.Event("sos/sample-skipped")
		}
		if endSample != nil && a.kind != actSample {
			endSample()
			endSample = nil
		}
		if a.resample {
			tr.Event("sos/resample")
		}
		if a.fallback {
			tr.Event("sos/fallback")
		}

		switch a.kind {
		case actDone:
			if solo != nil && res.Cycles > 0 {
				res.WeightedSpeedup = num / float64(res.Cycles)
			}
			return res, nil

		case actDraw:
			cands, samples = schedule.Sample(r, m.NumTasks(), y, z, opt.Samples), nil
			e.n = len(cands)

		case actSample:
			if err := warm(cands[a.cand]); err != nil {
				return res, err
			}
			if endSample == nil {
				endSample = tr.Span("sos/sample", "")
			}
			if a.backoff > 0 {
				rr, err := RoundRobin(m.NumTasks(), y)
				if err == nil {
					_, err = m.RunScheduleCtx(ctx, rr, a.backoff)
				}
				if err != nil {
					return res, err
				}
			}
			got, err := SamplePhase(ctx, m, cands[a.cand:a.cand+1], 1)
			switch {
			case errors.Is(err, ErrCounterRead):
				e.lost = true
			case err != nil:
				return res, err
			}
			samples = append(samples, got...)

		case actPick:
			if e.degenerate = degenerate(samples); !e.degenerate {
				endOpt := tr.Span("sos/optimize", "")
				best := samples[Pick(samples, opt.Predictor)]
				endOpt()
				pick, e.ipc = best.Sched, best.IPC
			}

		case actWindow:
			s := pick
			if a.rr {
				var err error
				if s, err = RoundRobin(m.NumTasks(), y); err != nil {
					return res, err
				}
			}
			if err := warm(s); err != nil {
				return res, err
			}
			w := a.slices
			if len(churn) > 0 {
				w = min(w, churn[0].AtSlice-done)
			}
			endWin := tr.Span("sos/symbios", "")
			run, err := m.RunScheduleCtx(ctx, s, w)
			endWin()
			if err != nil {
				return res, err
			}
			if solo != nil {
				for i, c := range run.Committed {
					num += float64(c) / solo[i]
				}
			}
			res.Cycles += run.Cycles
			done += w
			e = event{slices: w, lost: run.ReadFailures > 0, ipc: meanIPC(run.SliceIPCs)}
			for ; len(churn) > 0 && churn[0].AtSlice <= done; churn = churn[1:] {
				tr.Event("sos/churn")
				if solo, err = applyChurn(m, solo, churn[0]); err != nil {
					return res, err
				}
				e.churned = true
			}
			e.tasks = m.NumTasks()
		}
	}
}

// applyChurn applies ev to m's job list and returns the solo rates of the
// new task list (nil when solo is nil).
func applyChurn(m *Machine, solo []float64, ev ChurnEvent) ([]float64, error) {
	jobs := m.Jobs()
	for _, id := range ev.Depart {
		i := slices.IndexFunc(jobs, func(j *workload.Job) bool { return j.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("core: churn at slice %d departs unknown job %d", ev.AtSlice, id)
		}
		jobs = slices.Delete(jobs, i, i+1)
	}
	var kept []float64
	if solo != nil {
		for i, t := range m.Tasks() {
			if slices.Contains(jobs, t.Job) {
				kept = append(kept, solo[i])
			}
		}
		for i, j := range ev.Arrive {
			if len(ev.ArriveSolo[i]) != j.Threads() {
				return nil, fmt.Errorf("core: churn arrival %s has %d solo rates for %d threads", j.Name(), len(ev.ArriveSolo[i]), j.Threads())
			}
			kept = append(kept, ev.ArriveSolo[i]...)
		}
	}
	return kept, m.SetTasks(append(jobs, ev.Arrive...))
}

// degenerate reports whether a sample set cannot support a prediction: any
// non-finite predictor quantity, or no sample that retired anything (every
// observation claims an idle machine).
func degenerate(samples []Sample) bool {
	for _, s := range samples {
		for _, v := range [...]float64{s.IPC, s.AllConf, s.Dcache, s.FQ, s.FP, s.Sum2, s.Diversity, s.Balance} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
	}
	return !slices.ContainsFunc(samples, func(s Sample) bool { return s.IPC > 0 })
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
