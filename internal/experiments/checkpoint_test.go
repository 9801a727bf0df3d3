package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"symbios/internal/checkpoint"
	"symbios/internal/faults"
)

// The crash-injection tests prove the tentpole invariant: killing a sweep at
// an arbitrary point and resuming from its snapshot produces byte-identical
// experiment JSON to an uninterrupted run, at any worker count.

// crashScale is the smallest budget that still runs every robustness code
// path (calibration, naive baseline, static predictors, adaptive + churn).
func crashScale() Scale {
	sc := quickRobustScale()
	sc.SymbiosCycles = 800_000
	return sc
}

var (
	crashLabels = []string{"Jsb(4,2,2)"}
	crashLevels = []faults.Config{{}, {NoiseSigma: 0.10}, {NoiseSigma: 0.20}}
)

// crashBaselineJSON computes the uninterrupted sweep exactly once and shares
// it across the crash tests — by the determinism contract the baseline does
// not depend on the worker count in force when it is computed.
var (
	crashBaselineOnce sync.Once
	crashBaseline     []byte
	crashBaselineErr  error
)

func crashBaselineJSON(t *testing.T) []byte {
	t.Helper()
	crashBaselineOnce.Do(func() {
		rows, err := Robustness(context.Background(), crashScale(), crashLabels, crashLevels, DefaultChurn())
		if err != nil {
			crashBaselineErr = err
			return
		}
		crashBaseline, crashBaselineErr = json.Marshal(rows)
	})
	if crashBaselineErr != nil {
		t.Fatal(crashBaselineErr)
	}
	return crashBaseline
}

// TestCrashResumeByteIdentical kills the sweep as soon as its first shard is
// checkpointed, resumes from the snapshot, and requires the resumed run's
// JSON to equal the uninterrupted baseline's byte for byte — at workers=1
// and workers=8.
func TestCrashResumeByteIdentical(t *testing.T) {
	baseline := crashBaselineJSON(t)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withWorkers(t, workers, func() {
				sc := crashScale()
				dir := t.TempDir()
				path := filepath.Join(dir, "crash.ckpt")
				meta := checkpoint.Meta{Exp: "robustness", Scale: "crash-test", Seed: sc.Seed, Mix: crashLabels[0]}

				// The "crash": cancel the run the moment the first shard
				// lands in the snapshot, mid-sweep, from outside.
				rec := checkpoint.NewRecorder(path, meta, 1)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ctx = checkpoint.WithRecorder(ctx, rec)
				go func() {
					for rec.Shards() == 0 {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
				_, runErr := Robustness(ctx, sc, crashLabels, crashLevels, DefaultChurn())
				if runErr != nil && !errors.Is(runErr, context.Canceled) {
					t.Fatalf("interrupted run failed with %v, want a context.Canceled abort", runErr)
				}
				if err := rec.Flush(); err != nil {
					t.Fatal(err)
				}
				if rec.Shards() == 0 {
					t.Fatal("no shards checkpointed before the kill")
				}

				// The resume: a fresh recorder from the snapshot, writing to
				// a new path so the crashed file stays inspectable.
				rec2, err := checkpoint.Resume(path, filepath.Join(dir, "resume.ckpt"), meta, 1)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := Robustness(checkpoint.WithRecorder(context.Background(), rec2), sc, crashLabels, crashLevels, DefaultChurn())
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(rows)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, baseline) {
					t.Fatalf("resumed run is not byte-identical to the uninterrupted baseline:\n%s\nvs\n%s", got, baseline)
				}
				if rec2.Hits() == 0 {
					t.Error("resume recomputed every shard; the snapshot replay never engaged")
				}
			})
		})
	}
}

// TestDeadlineAbortLeavesValidSnapshot: a deadline abort must surface as
// context.DeadlineExceeded (never masked by the fan-out's cancellation
// plumbing), and the flushed snapshot must load cleanly and drive a resume
// that matches the uninterrupted baseline.
func TestDeadlineAbortLeavesValidSnapshot(t *testing.T) {
	baseline := crashBaselineJSON(t)
	sc := crashScale()
	dir := t.TempDir()
	path := filepath.Join(dir, "deadline.ckpt")
	meta := checkpoint.Meta{Exp: "robustness", Scale: "crash-test", Seed: sc.Seed, Mix: crashLabels[0]}

	rec := checkpoint.NewRecorder(path, meta, 1)
	dl, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Robustness(checkpoint.WithRecorder(dl, rec), sc, crashLabels, crashLevels, DefaultChurn())
	if !errorsIsDeadline(err) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("deadline-abort snapshot does not load: %v", err)
	}
	if snap.Meta != meta {
		t.Fatalf("snapshot meta %+v, want %+v", snap.Meta, meta)
	}

	rec2, err := checkpoint.Resume(path, "", meta, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Robustness(checkpoint.WithRecorder(context.Background(), rec2), sc, crashLabels, crashLevels, DefaultChurn())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, baseline) {
		t.Fatal("deadline-resumed run is not byte-identical to the uninterrupted baseline")
	}
}

// errorsIsDeadline reports whether err carries context.DeadlineExceeded.
func errorsIsDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }

// TestShardedMapWatchdogBrackets: shardedMap must report each shard to a
// context-carried watchdog, so stalls are attributed to the shard key.
func TestShardedMapWatchdogBrackets(t *testing.T) {
	var mu sync.Mutex
	seen := 0
	wd := checkpoint.NewWatchdog(checkpoint.WatchdogConfig{Poll: time.Hour})
	defer wd.Stop()
	ctx := checkpoint.WithWatchdog(context.Background(), wd)
	items := []int{0, 1, 2, 3}
	_, err := shardedMap(ctx, "wdtest", items, func(_ context.Context, _ int, v int) (int, error) {
		mu.Lock()
		seen++
		mu.Unlock()
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(items) {
		t.Fatalf("computed %d shards, want %d", seen, len(items))
	}
	if wd.Stalled() {
		t.Fatal("healthy fan-out flagged as stalled")
	}
}
