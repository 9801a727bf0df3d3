package queueing

import (
	"math"
	"reflect"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/parallel"
	"symbios/internal/rng"
)

// withWorkers runs fn under a fixed global worker count, restoring the
// previous setting afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := parallel.SetDefaultWorkers(n)
	defer parallel.SetDefaultWorkers(prev)
	fn()
}

// testDists returns the two generator families the open-system harness
// sweeps, matched to the same means.
func testDists(inter, length float64) map[string][2]Dist {
	return map[string][2]Dist{
		"poisson": {ExpDist(inter), ExpDist(length)},
		"pareto":  {BoundedParetoWithMean(1.5, 100, inter), BoundedParetoWithMean(1.1, 1000, length)},
	}
}

// TestBoundedParetoWithMean: the solved lo/hi hit the requested mean.
func TestBoundedParetoWithMean(t *testing.T) {
	for _, mean := range []float64{1000, 250_000} {
		d := BoundedParetoWithMean(1.2, 500, mean)
		if got := d.Mean(); math.Abs(got-mean)/mean > 1e-9 {
			t.Errorf("analytic mean %.2f, want %.2f", got, mean)
		}
		r := rng.New(99)
		sum := 0.0
		const n = 300_000
		for i := 0; i < n; i++ {
			sum += d.Draw(r)
		}
		if got := sum / n; math.Abs(got-mean)/mean > 0.10 {
			t.Errorf("empirical mean %.2f, want ~%.2f", got, mean)
		}
	}
}

// TestGenerateScriptDistErrors: invalid distributions are rejected, not
// panicked on.
func TestGenerateScriptDistErrors(t *testing.T) {
	bad := []Dist{
		{Kind: DistExp, ExpMean: 0},
		{Kind: DistBoundedPareto, Alpha: 0, Lo: 1, Hi: 2},
		{Kind: DistBoundedPareto, Alpha: 1, Lo: 2, Hi: 2},
		{Kind: DistKind(42)},
	}
	good := ExpDist(1000)
	for _, d := range bad {
		if _, err := GenerateScriptDist(1, d, good, 10_000, fakeSolo()); err == nil {
			t.Errorf("bad interarrival %+v accepted", d)
		}
		if _, err := GenerateScriptDist(1, good, d, 10_000, fakeSolo()); err == nil {
			t.Errorf("bad job size %+v accepted", d)
		}
	}
}

// TestScriptDistDeterminismAcrossWorkers: identical arrival scripts at
// workers 1 vs 8 for both the Poisson and the heavy-tailed generator. The
// generator is seed-driven and single-threaded, so the global worker count
// must be invisible to it.
func TestScriptDistDeterminismAcrossWorkers(t *testing.T) {
	for name, ds := range testDists(50_000, 400_000) {
		var s1, s8 Script
		var e1, e8 error
		withWorkers(t, 1, func() { s1, e1 = GenerateScriptDist(17, ds[0], ds[1], 50_000_000, fakeSolo()) })
		withWorkers(t, 8, func() { s8, e8 = GenerateScriptDist(17, ds[0], ds[1], 50_000_000, fakeSolo()) })
		if e1 != nil || e8 != nil {
			t.Fatalf("%s: %v / %v", name, e1, e8)
		}
		if len(s1.Arrivals) == 0 {
			t.Fatalf("%s: empty script", name)
		}
		if !reflect.DeepEqual(s1, s8) {
			t.Errorf("%s: scripts differ between workers=1 and workers=8", name)
		}
	}
}

// TestResponseDistributionDeterminismAcrossWorkers: both schedulers produce
// identical response-time distributions (mean and tail percentiles) across
// repeated runs and across workers 1 vs 8, for both generators.
func TestResponseDistributionDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	cfg := arch.Default21264(2)
	solo, err := CalibrateSolo(bg, cfg, 300_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 3_000_000
	for name, ds := range testDists(150_000, 300_000) {
		script, err := GenerateScriptDist(23, ds[0], ds[1], horizon, solo)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultSOSOptions(script)
		opt.Samples = 3
		runBoth := func() (Result, Result) {
			nv, err := RunNaive(bg, cfg, 50_000, script, horizon)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := RunSOS(bg, cfg, 50_000, script, horizon, opt)
			if err != nil {
				t.Fatal(err)
			}
			return nv, ss
		}
		var nv1, ss1, nv8, ss8 Result
		withWorkers(t, 1, func() { nv1, ss1 = runBoth() })
		withWorkers(t, 8, func() { nv8, ss8 = runBoth() })
		if nv1 != nv8 {
			t.Errorf("%s: naive results differ across workers:\n%+v\nvs\n%+v", name, nv1, nv8)
		}
		if ss1 != ss8 {
			t.Errorf("%s: SOS results differ across workers:\n%+v\nvs\n%+v", name, ss1, ss8)
		}
		if nv1.Completed > 0 {
			if nv1.ResponseP50 <= 0 || nv1.ResponseP99 < nv1.ResponseP50 || nv1.ResponseP999 < nv1.ResponseP99 {
				t.Errorf("%s: percentiles not monotone: %+v", name, nv1)
			}
		}
	}
}

// TestBacklogAwareSampling: with a low backlog threshold the SOS variant
// shrinks sample phases, stays deterministic, and conserves jobs.
func TestBacklogAwareSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	cfg := arch.Default21264(2)
	solo, err := CalibrateSolo(bg, cfg, 300_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 3_000_000
	// Overloaded: arrivals much faster than the service rate.
	script, err := GenerateScript(31, 60_000, 400_000, horizon, solo)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultSOSOptions(script)
	opt.Samples = 4
	opt.BacklogFactor = 1.5
	opt.BacklogSamples = 2
	a, err := RunSOS(bg, cfg, 50_000, script, horizon, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.ShrunkPhases == 0 {
		t.Error("no shrunken sample phases under overload")
	}
	if a.Completed+a.LeftoverInSystem != a.Admitted {
		t.Errorf("conservation: %d + %d != %d", a.Completed, a.LeftoverInSystem, a.Admitted)
	}
	b, err := RunSOS(bg, cfg, 50_000, script, horizon, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("backlog-aware SOS diverged: %+v vs %+v", a, b)
	}
}
