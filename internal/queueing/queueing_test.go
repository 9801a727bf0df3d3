package queueing

import (
	"context"
	"errors"
	"math"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/core"
)

// bg is the never-cancelled context of the runs that do not abort.
var bg = context.Background()

// fakeSolo gives every generator benchmark a fixed rate, so script tests
// need no simulation.
func fakeSolo() map[string]float64 {
	out := map[string]float64{}
	for _, n := range singleThreadedBenchmarks {
		out[n] = 1.0
	}
	return out
}

// TestScriptStatistics: interarrival and length distributions match their
// parameters, and the script is sorted in time.
func TestScriptStatistics(t *testing.T) {
	const inter, length = 50_000.0, 400_000.0
	const horizon = 200_000_000
	s, err := GenerateScript(3, inter, length, horizon, fakeSolo())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Arrivals) < 1000 {
		t.Fatalf("only %d arrivals", len(s.Arrivals))
	}
	var lastAt uint64
	var sumWork float64
	for _, a := range s.Arrivals {
		if a.At < lastAt {
			t.Fatal("arrivals out of order")
		}
		lastAt = a.At
		if a.At >= horizon {
			t.Fatal("arrival beyond horizon")
		}
		sumWork += float64(a.Work)
	}
	gotInter := float64(lastAt) / float64(len(s.Arrivals))
	if math.Abs(gotInter-inter)/inter > 0.1 {
		t.Errorf("mean interarrival %.0f, want ~%.0f", gotInter, inter)
	}
	// Work = cycles * soloIPC with soloIPC = 1.
	gotLen := sumWork / float64(len(s.Arrivals))
	if math.Abs(gotLen-length)/length > 0.1 {
		t.Errorf("mean length %.0f, want ~%.0f", gotLen, length)
	}
}

// TestScriptDeterminism: same seed, same script.
func TestScriptDeterminism(t *testing.T) {
	a, err := GenerateScript(7, 1000, 10000, 1_000_000, fakeSolo())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateScript(7, 1000, 10000, 1_000_000, fakeSolo())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Arrivals) != len(b.Arrivals) {
		t.Fatal("script lengths differ")
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
}

// TestScriptErrors: invalid parameters are rejected.
func TestScriptErrors(t *testing.T) {
	if _, err := GenerateScript(1, 0, 100, 1000, fakeSolo()); err == nil {
		t.Error("zero interarrival accepted")
	}
	if _, err := GenerateScript(1, 100, 0, 1000, fakeSolo()); err == nil {
		t.Error("zero job length accepted")
	}
	if _, err := GenerateScript(1, 100, 100, 10_000, map[string]float64{}); err == nil {
		t.Error("missing solo rates accepted")
	}
}

// TestNaiveConservation: every admitted job is either completed or still in
// the system; response times are positive.
func TestNaiveConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	cfg := arch.Default21264(2)
	solo, err := CalibrateSolo(bg, cfg, 300_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 4_000_000
	script, err := GenerateScript(5, 150_000, 300_000, horizon, solo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNaive(bg, cfg, 50_000, script, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.LeftoverInSystem != res.Admitted {
		t.Errorf("conservation: %d completed + %d leftover != %d admitted",
			res.Completed, res.LeftoverInSystem, res.Admitted)
	}
	if res.Admitted > len(script.Arrivals) {
		t.Errorf("admitted %d of %d scripted arrivals", res.Admitted, len(script.Arrivals))
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.MeanResponse <= 0 {
		t.Errorf("mean response %f", res.MeanResponse)
	}
	if res.Cycles < horizon {
		t.Errorf("stopped early at %d", res.Cycles)
	}
	checkSlices(t, res, 50_000)
}

// checkSlices: the slice counts by kind add up to the run's slices.
func checkSlices(t *testing.T, res Result, slice uint64) {
	t.Helper()
	if n := res.IdleSlices + res.NoChoiceSlices + res.SampleSlices + res.SymbiosSlices; uint64(n)*slice != res.Cycles {
		t.Errorf("%d idle + %d no-choice + %d sample + %d symbios slices of %d cycles, run %d cycles",
			res.IdleSlices, res.NoChoiceSlices, res.SampleSlices, res.SymbiosSlices, slice, res.Cycles)
	}
}

// TestSOSConservationAndDeterminism: the SOS scheduler preserves jobs and
// is reproducible.
func TestSOSConservationAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	cfg := arch.Default21264(2)
	solo, err := CalibrateSolo(bg, cfg, 300_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 4_000_000
	script, err := GenerateScript(6, 150_000, 300_000, horizon, solo)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultSOSOptions(script)
	opt.Samples = 3
	run := func() Result {
		res, err := RunSOS(bg, cfg, 50_000, script, horizon, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.Completed+a.LeftoverInSystem != a.Admitted {
		t.Errorf("conservation: %d + %d != %d admitted", a.Completed, a.LeftoverInSystem, a.Admitted)
	}
	if a.Completed == 0 {
		t.Fatal("SOS completed nothing")
	}
	checkSlices(t, a, 50_000)
	b := run()
	if a != b {
		t.Errorf("SOS runs diverged: %+v vs %+v", a, b)
	}
}

// TestSOSOptionErrors: invalid options are rejected.
func TestSOSOptionErrors(t *testing.T) {
	cfg := arch.Default21264(2)
	script := Script{MeanInterarrival: 1000, MeanJobCycles: 1000}
	if _, err := RunSOS(bg, cfg, 1000, script, 1000, SOSOptions{Samples: 0, Predictor: core.PredScore, SymbiosInterval: 100}); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := RunNaive(bg, cfg, 0, script, 1000); err == nil {
		t.Error("zero slice accepted")
	}
}

// TestDefaultSOSOptions derives the symbiosis interval from the script.
func TestDefaultSOSOptions(t *testing.T) {
	opt := DefaultSOSOptions(Script{MeanInterarrival: 123456})
	if opt.SymbiosInterval != 123456 {
		t.Errorf("symbiosis interval %d", opt.SymbiosInterval)
	}
	if opt.Predictor != core.PredScore || opt.Samples < 1 {
		t.Error("defaults incomplete")
	}
}

// TestCalibrateSolo returns sane rates for every generator benchmark.
func TestCalibrateSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	solo, err := CalibrateSolo(bg, arch.Default21264(2), 200_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != len(singleThreadedBenchmarks) {
		t.Fatalf("%d rates", len(solo))
	}
	for n, r := range solo {
		if r <= 0 || r > 8 {
			t.Errorf("%s: solo IPC %f", n, r)
		}
	}
}

// TestSOSBackoff: with a stable jobmix (one initial burst, no further
// arrivals or departures), SOS enters symbios, re-samples on the timer,
// confirms its prediction and doubles the symbiosis interval.
func TestSOSBackoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	cfg := arch.Default21264(2)
	// Five long jobs arriving immediately; none finish within the horizon.
	script := Script{MeanInterarrival: 100_000, MeanJobCycles: 1_000_000}
	for i := 0; i < 5; i++ {
		script.Arrivals = append(script.Arrivals, Arrival{
			At: uint64(i), Benchmark: singleThreadedBenchmarks[i], Work: 1 << 40,
		})
	}
	opt := SOSOptions{
		Samples:         3,
		Predictor:       core.PredScore,
		SymbiosInterval: 200_000,
		Seed:            4,
	}
	res, err := RunSOS(bg, cfg, 25_000, script, 6_000_000, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("jobs unexpectedly completed: %d", res.Completed)
	}
	if res.SamplePhases < 2 {
		t.Errorf("only %d sample phases; timer resampling did not engage", res.SamplePhases)
	}
	if res.SymbiosEntries < 2 {
		t.Errorf("only %d symbios entries", res.SymbiosEntries)
	}
	if res.MaxBackoff <= opt.SymbiosInterval {
		t.Errorf("backoff never exceeded the base interval: max %d", res.MaxBackoff)
	}
}

// pollCtx answers its first after Err polls with nil and every later one
// with cancellation, counting them: a deterministic stand-in for a deadline
// firing mid-run.
type pollCtx struct {
	context.Context
	after, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestRunsStopWithinOneTimeslice: both schedulers poll their context once
// per timeslice. An expired context returns its error before any slice
// runs — calibration included — and one that expires after three polls
// stops the run at the fourth, though the horizon is hours of simulation
// away.
func TestRunsStopWithinOneTimeslice(t *testing.T) {
	cfg := arch.Default21264(2)
	script, err := GenerateScript(5, 20_000, 400_000, 2_000_000, fakeSolo())
	if err != nil {
		t.Fatal(err)
	}
	const slice, horizon = 50_000, 1 << 50
	runs := map[string]func(context.Context) error{
		"naive": func(ctx context.Context) error {
			_, err := RunNaive(ctx, cfg, slice, script, horizon)
			return err
		},
		"sos": func(ctx context.Context) error {
			_, err := RunSOS(ctx, cfg, slice, script, horizon, DefaultSOSOptions(script))
			return err
		},
	}
	dead, cancel := context.WithTimeout(bg, -1)
	defer cancel()
	for name, run := range runs {
		if err := run(dead); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s under an expired context: err=%v, want context.DeadlineExceeded", name, err)
		}
		ctx := &pollCtx{Context: bg, after: 3}
		if err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err=%v, want context.Canceled", name, err)
		}
		if ctx.polls != 4 {
			t.Errorf("%s: %d context polls, want 4: three slices run, the fourth refused", name, ctx.polls)
		}
	}
	if _, err := CalibrateSolo(dead, cfg, horizon, horizon); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("CalibrateSolo under an expired context: err=%v, want context.DeadlineExceeded", err)
	}
}
