package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"sync/atomic"
	"testing"

	"symbios/internal/faults"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/trace"
	"symbios/internal/workload"
)

var updateWork = flag.Bool("update-work", false, "rewrite the work-count files under testdata from the current code")

// evalWork is what one mix evaluation generated: every instruction a
// stream drew, whether into a tape chunk or straight into a reader's
// buffer (a calibration's plain stream, or a tape read past its horizon).
type evalWork struct {
	Generated uint64 `json:"generated"`
	Fills     uint64 `json:"fills"` // Stream.Fill calls that drew them
}

// TestEvalWorkCounts is an exact regression gate on instruction
// generation: one serve-scale Jsb(6,3,3) evaluation of three sampled
// schedules at seed 1, the same shape as BenchmarkRankMiss's rank plus its
// calibrations and symbios runs.
func TestEvalWorkCounts(t *testing.T) {
	sc := ServeScale()
	sc.Seed = 1
	mix := workload.MustMix("Jsb(6,3,3)")
	scheds := schedule.Sample(rng.New(1), mix.Tasks(), mix.SMTLevel, mix.Swap, 3)
	checkWork(t, "testdata/eval_work.json", func() error {
		_, err := EvalMixSchedules(context.Background(), mix, scheds, sc)
		return err
	})
}

// TestChurnWorkCounts is the same gate on one clean robustness cell of
// Jsb(4,2,2) under the default churn script: its calibrations, the static
// predictor runs, and the baseline and adaptive runs with their arrival.
func TestChurnWorkCounts(t *testing.T) {
	sc := quickRobustScale()
	checkWork(t, "testdata/churn_work.json", func() error {
		_, err := robustnessCell(context.Background(), "Jsb(4,2,2)", faults.Config{}, DefaultChurn(), sc, rng.Hash2(sc.Seed, 0, saltRobustCell))
		return err
	})
}

// checkWork counts what run generates and compares it with the counts
// committed at path. Streams are pure in seq and the simulator is
// deterministic, so a count carries no noise; the gate fails when one
// rises. When one falls it logs the new values; re-cut the file with
// -update-work in the same change.
func checkWork(t *testing.T, path string, run func() error) {
	t.Helper()
	var got evalWork
	var generated, fills atomic.Uint64
	trace.SetFillHook(func(n int) {
		generated.Add(uint64(n))
		fills.Add(1)
	})
	err := run()
	trace.SetFillHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	got.Generated, got.Fills = generated.Load(), fills.Load()

	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if *updateWork {
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want evalWork
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got.Generated > want.Generated {
		t.Errorf("generated rose to %d instructions (committed %d)", got.Generated, want.Generated)
	}
	if got.Fills > want.Fills {
		t.Errorf("fills rose to %d (committed %d)", got.Fills, want.Fills)
	}
	if got != want && !t.Failed() {
		t.Logf("work fell; re-cut %s with -update-work:\n%s", path, data)
	}
}
