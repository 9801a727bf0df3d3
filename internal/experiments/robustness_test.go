package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"symbios/internal/faults"
	"symbios/internal/parallel"
)

// quickRobustScale shrinks the budgets: these tests prove robustness
// properties, not simulation fidelity.
func quickRobustScale() Scale {
	sc := QuickScale()
	sc.CalibWarmup, sc.CalibMeasure = 200_000, 100_000
	sc.WarmupCycles, sc.SymbiosCycles = 200_000, 1_200_000
	return sc
}

// TestAdaptiveBeatsNaiveUnderModerateFaults is the issue's acceptance
// criterion: with counter noise up to σ=0.2 and single-job churn, the
// hardened adaptive pipeline must achieve a weighted speedup at least as good
// as the oblivious round-robin baseline, in every tested mix.
func TestAdaptiveBeatsNaiveUnderModerateFaults(t *testing.T) {
	levels := []faults.Config{
		{},
		{NoiseSigma: 0.10},
		{NoiseSigma: 0.20},
	}
	rows, err := Robustness(context.Background(), quickRobustScale(), nil, levels, DefaultChurn())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AdaptiveWS < r.NaiveWS {
			t.Errorf("%s under %s: adaptive WS %.3f below naive %.3f", r.Mix, r.Fault, r.AdaptiveWS, r.NaiveWS)
		}
		if r.AdaptiveWS <= 0 || r.NaiveWS <= 0 {
			t.Errorf("%s under %s: non-positive WS (adaptive %.3f, naive %.3f)", r.Mix, r.Fault, r.AdaptiveWS, r.NaiveWS)
		}
	}
}

// TestRobustnessReportsDegradedActivity: the harsh combined fault level must
// visibly exercise the degraded machinery — the run completes and logs
// retries, skips, fallbacks, resamples or lost windows rather than sailing
// through silently.
func TestRobustnessReportsDegradedActivity(t *testing.T) {
	harsh := []faults.Config{{NoiseSigma: 0.20, DropRate: 0.10, StickyRate: 0.02, FailRate: 0.10}}
	rows, err := Robustness(context.Background(), quickRobustScale(), []string{"Jsb(4,2,2)"}, harsh, DefaultChurn())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Resamples+r.Retries+r.SkippedSamples+r.FallbackSlices+r.LostWindows == 0 {
		t.Errorf("harsh faults produced no degraded-mode activity: %+v", r)
	}
	if r.AdaptiveWS <= 0 {
		t.Errorf("adaptive WS %.3f under harsh faults, want > 0", r.AdaptiveWS)
	}
	for p, ws := range r.PredWS {
		if ws <= 0 {
			t.Errorf("predictor %s realized WS %.3f, want > 0", p, ws)
		}
	}
}

// TestRobustnessDeterministicAcrossWorkers: the full sweep — fault injection,
// churn, adaptive retries and all — must be bit-identical at workers=1 and
// workers=8, and the serial rows must equal testdata/golden_robustness.json.
// This is the satellite requirement that every fault mode obey the parallel
// determinism contract. Regenerate the golden with:
//
//	go test ./internal/experiments -run TestRobustnessDeterministicAcrossWorkers -update-golden
func TestRobustnessDeterministicAcrossWorkers(t *testing.T) {
	sc := quickRobustScale()
	sc.SymbiosCycles = 800_000
	levels := []faults.Config{
		{NoiseSigma: 0.30},
		{DropRate: 0.30},
		{StickyRate: 0.10},
		{SaturateAt: 10_000},
		{FailRate: 0.15},
		{NoiseSigma: 0.20, DropRate: 0.10, StickyRate: 0.02, FailRate: 0.10},
	}
	labels := []string{"Jsb(4,2,2)"}

	var serial, fanned []RobustnessRow
	var err1, err8 error
	withWorkers(t, 1, func() { serial, err1 = Robustness(context.Background(), sc, labels, levels, DefaultChurn()) })
	if err1 != nil {
		t.Fatal(err1)
	}
	checkRobustnessGolden(t, serial)
	withWorkers(t, 8, func() { fanned, err8 = Robustness(context.Background(), sc, labels, levels, DefaultChurn()) })
	if err8 != nil {
		t.Fatal(err8)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("robustness rows differ between workers=1 and workers=8:\n%+v\nvs\n%+v", serial, fanned)
	}
}

// TestRobustnessFailureAbortsSiblings: a failing cell cancels the sweep's
// context, so an in-flight sibling that waits on it returns at once, and the
// sweep reports the failing cell's own error — not the sibling's abort,
// though the sibling has the lower index.
func TestRobustnessFailureAbortsSiblings(t *testing.T) {
	defer parallel.SetDefaultWorkers(parallel.SetDefaultWorkers(2))
	defer func(prev func(context.Context, string, faults.Config, []faults.ChurnSpec, Scale, uint64) (RobustnessRow, error)) {
		runRobustnessCell = prev
	}(runRobustnessCell)
	boom := errors.New("boom")
	started := make(chan struct{})
	runRobustnessCell = func(ctx context.Context, label string, _ faults.Config, _ []faults.ChurnSpec, _ Scale, _ uint64) (RobustnessRow, error) {
		if label != "Jsb(4,2,2)" {
			<-started
			return RobustnessRow{}, boom
		}
		close(started)
		select {
		case <-ctx.Done():
			return RobustnessRow{}, ctx.Err()
		case <-time.After(time.Minute):
			return RobustnessRow{}, errors.New("sibling cell was not aborted")
		}
	}
	_, err := Robustness(context.Background(), QuickScale(), []string{"Jsb(4,2,2)", "Jsb(6,3,3)"}, []faults.Config{{}}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the failing cell's error", err)
	}
}

const robustGoldenPath = "testdata/golden_robustness.json"

// checkRobustnessGolden compares rows with the pinned robustness rows, or
// rewrites them under -update-golden.
func checkRobustnessGolden(t *testing.T, rows []RobustnessRow) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(robustGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", robustGoldenPath)
		return
	}
	data, err := os.ReadFile(robustGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden on trusted code): %v", err)
	}
	var want []RobustnessRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("robustness rows diverged from %s:\n got %+v\nwant %+v", robustGoldenPath, rows, want)
	}
}
