package experiments

import (
	"context"
	"sync/atomic"
	"testing"

	"symbios/internal/trace"
)

// TestResponseCompare reproduces the Section 9 comparison at test scale on
// one SMT level: SOS must deliver a response time no worse than a few
// percent above the naive scheduler's (the paper sees 8-18% improvements;
// at small scale we assert non-inferiority plus a stable system).
func TestResponseCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	row, err := ResponseCompare(context.Background(), 3, QuickQueueScale(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SMT %d: naive RT %.0f (n=%d), SOS RT %.0f (n=%d), improvement %.1f%%, N~%.1f",
		row.SMTLevel, row.NaiveResponse, row.NaiveCompleted, row.SOSResponse, row.SOSCompleted,
		row.ImprovementPct, row.MeanJobsInSystem)
	if row.NaiveCompleted < 3 || row.SOSCompleted < 3 {
		t.Fatalf("too few completions for a meaningful comparison")
	}
	if row.ImprovementPct < -10 {
		t.Errorf("SOS response time (%.0f) much worse than naive (%.0f)", row.SOSResponse, row.NaiveResponse)
	}
}

// TestResponseMemo: a row is simulated once per process, and the rows of
// one SMT level share one solo calibration. Instruction generation
// measures the work exactly: a repeated row generates nothing, and a row
// whose level is already calibrated generates exactly its own runs.
func TestResponseMemo(t *testing.T) {
	qs := QueueScale{Slice: 20_000, MeanJobCycles: 100_000, Horizon: 1_000_000, CalibWarmup: 50_000, CalibMeasure: 20_000, Seed: 3}
	ctx := context.Background()
	var generated atomic.Uint64
	trace.SetFillHook(func(n int) { generated.Add(uint64(n)) })
	defer trace.SetFillHook(nil)
	ClearEvalCache()
	defer ClearEvalCache()
	work := func(f func() error) uint64 {
		t.Helper()
		before := generated.Load()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return generated.Load() - before
	}
	var first, again ResponseRow
	cold := work(func() (err error) { first, err = ResponseCompare(ctx, 2, qs, 1.0); return })
	if w := work(func() (err error) { again, err = ResponseCompare(ctx, 2, qs, 1.0); return }); w != 0 || again != first {
		t.Errorf("repeated row generated %d instructions (want 0) and read %+v (want %+v)", w, again, first)
	}

	ClearEvalCache()
	calib := work(func() error { _, err := calibrateSolo(ctx, 2, qs.CalibWarmup, qs.CalibMeasure); return err })
	warm := work(func() (err error) { again, err = ResponseCompare(ctx, 2, qs, 1.0); return })
	if calib == 0 || warm != cold-calib || again != first {
		t.Errorf("calibration %d + row after it %d instructions, want the cold row's %d (row %+v, want %+v)", calib, warm, cold, again, first)
	}
}
