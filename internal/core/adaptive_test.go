package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/counters"
	"symbios/internal/obs"
	"symbios/internal/rng"
	"symbios/internal/workload"
)

// archFor is the default machine config for a mix's SMT level.
func archFor(m workload.Mix) arch.Config { return arch.Default21264(m.SMTLevel) }

// flakyReader fails every nth Observe with ErrCounterRead and passes the
// rest through — the minimal transient-failure model for the retry path.
type flakyReader struct {
	n     int
	reads int
}

func (r *flakyReader) Observe(d counters.Set) (counters.Set, error) {
	r.reads++
	if r.n > 0 && r.reads%r.n == 0 {
		return counters.Set{}, ErrCounterRead
	}
	return d, nil
}

// zeroReader reports every event counter as zero (a wholly dead PMU); only
// the timebase survives.
type zeroReader struct{}

func (zeroReader) Observe(d counters.Set) (counters.Set, error) {
	return counters.Set{Cycles: d.Cycles}, nil
}

// adaptiveSetup builds a machine plus solo rates for a mix at test scale.
func adaptiveSetup(t *testing.T, label string, seed uint64) (*Machine, workload.Mix, []float64) {
	t.Helper()
	mix := workload.MustMix(label)
	jobs, err := mix.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, len(jobs))
	for i := range seeds {
		seeds[i] = rng.Hash2(seed, uint64(i), 0x3017)
	}
	cfg := archFor(mix)
	solo, err := SoloRates(context.Background(), cfg, jobs, seeds, 200_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, jobs, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	return m, mix, solo
}

// TestRunAdaptiveClean: with no faults the hardened pipeline behaves like
// plain SOS — no retries, no fallback, no resamples — and reports a
// positive weighted speedup.
func TestRunAdaptiveClean(t *testing.T) {
	m, mix, solo := adaptiveSetup(t, "Jsb(4,2,2)", 3)
	res, err := RunAdaptiveCtx(context.Background(), m, mix.SMTLevel, mix.Swap, solo, Options{
		Samples: 6, Predictor: PredScore, SymbiosSlices: 64,
		WarmupCycles: 200_000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightedSpeedup <= 0 {
		t.Errorf("WS %.3f, want > 0", res.WeightedSpeedup)
	}
	if res.Retries != 0 || res.FallbackSlices != 0 || res.Resamples != 0 || res.SkippedSamples != 0 {
		t.Errorf("clean run reported degraded-mode activity: %+v", res)
	}
	if res.Cycles == 0 {
		t.Error("no cycles measured")
	}
}

// TestRunAdaptiveRetriesTransientFailures: periodic counter-read failures
// are retried with backoff and the run still completes with a usable WS.
func TestRunAdaptiveRetriesTransientFailures(t *testing.T) {
	m, mix, solo := adaptiveSetup(t, "Jsb(4,2,2)", 3)
	m.SetCounterReader(&flakyReader{n: 7})
	res, err := RunAdaptiveCtx(context.Background(), m, mix.SMTLevel, mix.Swap, solo, Options{
		Samples: 6, Predictor: PredScore, SymbiosSlices: 64,
		WarmupCycles: 200_000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 && res.LostWindows == 0 {
		t.Error("flaky reader triggered no retries or lost windows")
	}
	if res.WeightedSpeedup <= 0 {
		t.Errorf("WS %.3f, want > 0 despite transient failures", res.WeightedSpeedup)
	}
}

// TestRunAdaptiveFallsBackOnDegenerateSamples: an all-zero counter view is
// degenerate input, so the scheduler must degrade to round-robin rather
// than trust a predictor over garbage, and tell its tracer so.
func TestRunAdaptiveFallsBackOnDegenerateSamples(t *testing.T) {
	m, mix, solo := adaptiveSetup(t, "Jsb(4,2,2)", 3)
	m.SetCounterReader(zeroReader{})
	ctx, trace := tracedCtx()
	res, err := RunAdaptiveCtx(ctx, m, mix.SMTLevel, mix.Swap, solo, Options{
		Samples: 6, Predictor: PredScore, SymbiosSlices: 32, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FallbackSlices != 32 {
		t.Errorf("FallbackSlices %d, want the whole symbios phase (32)", res.FallbackSlices)
	}
	if res.WeightedSpeedup <= 0 {
		t.Errorf("WS %.3f, want > 0 under round-robin fallback", res.WeightedSpeedup)
	}
	if !strings.Contains(trace.String(), `"name":"sos/fallback"`) {
		t.Errorf("no sos/fallback event traced:\n%s", trace)
	}
}

// tracedCtx returns a context whose tracer writes JSONL to the buffer.
func tracedCtx() (context.Context, *bytes.Buffer) {
	var buf bytes.Buffer
	return obs.WithTracer(context.Background(), obs.NewTracer(&buf, nil)), &buf
}

// TestRunAdaptiveChurn: a scripted departure and arrival mid-run changes
// the task set, triggers a resample, and the WS accounting follows the
// live mix.
func TestRunAdaptiveChurn(t *testing.T) {
	m, mix, solo := adaptiveSetup(t, "Jsb(5,2,2)", 3)

	spec := workload.MustLookup("IS")
	spec.Threads, spec.SyncEvery = 1, 0
	arrival := workload.MustNewJob(spec, 100, 77)
	arrSolo, err := SoloRates(context.Background(), archFor(mix), []*workload.Job{arrival}, []uint64{77}, 200_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	arrival = workload.MustNewJob(spec, 100, 77) // fresh progress after calibration probe

	ctx, trace := tracedCtx()
	res, err := RunAdaptiveCtx(ctx, m, mix.SMTLevel, mix.Swap, solo, Options{
		Samples: 5, Predictor: PredScore, SymbiosSlices: 60,
		WarmupCycles: 100_000, Seed: 11,
		Churn: []ChurnEvent{{
			AtSlice:    20,
			Depart:     []int{0},
			Arrive:     []*workload.Job{arrival},
			ArriveSolo: [][]float64{arrSolo},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resamples == 0 && res.FallbackSlices == 0 {
		t.Error("churn triggered neither resample nor fallback")
	}
	names := map[string]bool{}
	for _, tk := range m.Tasks() {
		names[tk.Job.Name()] = true
	}
	if !names["IS"] {
		t.Errorf("arrival missing from final task set: %v", names)
	}
	if res.WeightedSpeedup <= 0 {
		t.Errorf("WS %.3f, want > 0 across churn", res.WeightedSpeedup)
	}
	if !strings.Contains(trace.String(), `"name":"sos/churn"`) {
		t.Errorf("no sos/churn event traced:\n%s", trace)
	}
}

// TestRunAdaptiveAbort: a context cancelled mid-run (here after 40 polls)
// aborts the run at the first refused poll with the context's error and
// leaves the machine with no task attached.
func TestRunAdaptiveAbort(t *testing.T) {
	m, mix, solo := adaptiveSetup(t, "Jsb(4,2,2)", 3)
	ctx := &pollCtx{Context: context.Background(), after: 40}
	_, err := RunAdaptiveCtx(ctx, m, mix.SMTLevel, mix.Swap, solo, Options{
		Samples: 6, Predictor: PredScore, SymbiosSlices: 64, Seed: 9,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if got := ctx.polls.Load(); got != 41 {
		t.Errorf("%d context polls, want 41: the run must stop at the first refused poll", got)
	}
	for ctxID := 0; ctxID < m.Core.Config().Contexts; ctxID++ {
		if m.Core.Occupied(ctxID) {
			t.Fatalf("hardware context %d still occupied after the abort", ctxID)
		}
	}
}

// TestRunScheduleErrors covers the hardening of the execution layer: a
// running set larger than the SMT level is a returned error, not a panic,
// and NewMachine validates its inputs.
func TestRunScheduleErrors(t *testing.T) {
	if _, err := NewMachine(archFor(workload.MustMix("Jsb(4,2,2)")), nil, 20_000); err == nil {
		t.Error("NewMachine accepted an empty jobmix")
	}
	mix := workload.MustMix("Jsb(4,2,2)")
	jobs, err := mix.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(archFor(mix), jobs, 0); err == nil {
		t.Error("NewMachine accepted a zero timeslice")
	}
}

// TestCoincidentChurnAppliesTogether: churn events due at the same slice
// all apply at that slice, before one replan. Under either policy the run
// equals the run of one event that makes both changes, and the adaptive
// run charges one resample for the pair.
func TestCoincidentChurnAppliesTogether(t *testing.T) {
	spec := workload.MustLookup("IS")
	spec.Threads, spec.SyncEvery = 1, 0
	mix := workload.MustMix("Jsb(5,2,2)")
	arrSolo, err := SoloRates(context.Background(), archFor(mix), []*workload.Job{workload.MustNewJob(spec, 100, 77), workload.MustNewJob(spec, 101, 78)}, []uint64{77, 78}, 200_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	// script builds fresh arrivals per run, since jobs are stateful.
	script := func(merged bool) []ChurnEvent {
		a, b := workload.MustNewJob(spec, 100, 77), workload.MustNewJob(spec, 101, 78)
		if merged {
			return []ChurnEvent{{AtSlice: 20, Depart: []int{0, 1}, Arrive: []*workload.Job{a, b}, ArriveSolo: [][]float64{arrSolo[:1], arrSolo[1:]}}}
		}
		return []ChurnEvent{
			{AtSlice: 20, Depart: []int{0}, Arrive: []*workload.Job{a}, ArriveSolo: [][]float64{arrSolo[:1]}},
			{AtSlice: 20, Depart: []int{1}, Arrive: []*workload.Job{b}, ArriveSolo: [][]float64{arrSolo[1:]}},
		}
	}
	run := func(adaptive, merged bool) AdaptiveResult {
		m, mix, solo := adaptiveSetup(t, "Jsb(5,2,2)", 3)
		opt := Options{
			Samples: 5, Predictor: PredScore, SymbiosSlices: 60,
			WarmupCycles: 100_000, Seed: 11, Churn: script(merged),
		}
		var res AdaptiveResult
		var err error
		if adaptive {
			res, err = RunAdaptiveCtx(context.Background(), m, mix.SMTLevel, mix.Swap, solo, opt)
		} else {
			res, err = RunRoundRobinCtx(context.Background(), m, mix.SMTLevel, solo, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, adaptive := range []bool{false, true} {
		pair, one := run(adaptive, false), run(adaptive, true)
		if pair != one {
			t.Errorf("adaptive=%v: two events at slice 20 give %+v, one event making both changes %+v", adaptive, pair, one)
		}
		if adaptive && pair.Resamples != 1 {
			t.Errorf("the pair charged %d resamples, want 1", pair.Resamples)
		}
	}
}
