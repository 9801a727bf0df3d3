package core

import (
	"context"
	"errors"
	"testing"
)

// TestRunScheduleCtxCancelled: a cancelled context aborts the run at the
// next timeslice boundary with the context's error, and leaves the machine
// consistent enough to run again.
func TestRunScheduleCtxCancelled(t *testing.T) {
	m, mix, _ := adaptiveSetup(t, "Jsb(4,2,2)", 3)
	s, err := RoundRobin(m.NumTasks(), mix.SMTLevel)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunScheduleCtx(ctx, s, 8); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// The abort must have detached everything: a fresh run on the same
	// machine succeeds.
	if _, err := m.RunScheduleCtx(context.Background(), s, 8); err != nil {
		t.Fatalf("machine unusable after aborted run: %v", err)
	}
}

// TestRunScheduleCtxIdenticalWhenUnaborted: the context poll must never
// change results — an un-aborted run is bit-identical under a context that
// can never be cancelled and one that could be but is not.
func TestRunScheduleCtxIdenticalWhenUnaborted(t *testing.T) {
	run := func(ctx context.Context) RunResult {
		m, mix, _ := adaptiveSetup(t, "Jsb(4,2,2)", 3)
		s, err := RoundRobin(m.NumTasks(), mix.SMTLevel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunScheduleCtx(ctx, s, 16)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	a := run(context.Background())
	b := run(live)
	if a.Cycles != b.Cycles || a.Counters != b.Counters {
		t.Fatalf("context poll changed results: %+v vs %+v", a, b)
	}
	for i := range a.Committed {
		if a.Committed[i] != b.Committed[i] {
			t.Fatalf("task %d committed %d vs %d", i, a.Committed[i], b.Committed[i])
		}
	}
}

// TestRunAdaptiveCtxDeadline: an already-expired deadline aborts the
// adaptive pipeline with context.DeadlineExceeded, so callers can
// distinguish budget exhaustion from a user abort.
func TestRunAdaptiveCtxDeadline(t *testing.T) {
	m, mix, solo := adaptiveSetup(t, "Jsb(4,2,2)", 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAdaptiveCtx(ctx, m, mix.SMTLevel, mix.Swap, solo, Options{
		Samples: 6, Predictor: PredScore, SymbiosSlices: 64, Seed: 9,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}

	dl, cancel2 := context.WithTimeout(context.Background(), -1)
	defer cancel2()
	_, err = RunAdaptiveCtx(dl, m, mix.SMTLevel, mix.Swap, solo, Options{
		Samples: 6, Predictor: PredScore, SymbiosSlices: 64, Seed: 9,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
}
