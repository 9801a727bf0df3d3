package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bg is the never-cancelled context of the tests that do not abort.
var bg = context.Background()

// TestMapOrdering checks results land in input order at several worker
// counts, including counts exceeding the item count.
func TestMapOrdering(t *testing.T) {
	items := indices(100)
	for _, w := range []int{1, 2, 3, 8, 200} {
		got, err := Map(bg, items, Options{Workers: w}, func(i, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, g := range got {
			if g != i*i {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", w, i, g, i*i)
			}
		}
	}
}

// TestMapIdenticalAcrossWorkerCounts is the layer's core contract: the
// same inputs produce byte-identical outputs at any worker count.
func TestMapIdenticalAcrossWorkerCounts(t *testing.T) {
	items := indices(64)
	fn := func(i, v int) (string, error) {
		return fmt.Sprintf("item-%03d", v*7), nil
	}
	serial, err := Map(bg, items, Options{Workers: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		par, err := Map(bg, items, Options{Workers: w}, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: results differ from serial", w)
		}
	}
}

// TestFirstErrorByIndex checks the reported error is the lowest-indexed
// failure regardless of completion order.
func TestFirstErrorByIndex(t *testing.T) {
	items := indices(32)
	for _, w := range []int{1, 4, 32} {
		_, err := Map(bg, items, Options{Workers: w}, func(i, v int) (int, error) {
			if v == 7 || v == 21 {
				return 0, fmt.Errorf("boom at %d", v)
			}
			return v, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", w)
		}
		// Item 7 always runs (items before the failure latch trips are
		// claimed in order at w=1; at higher counts both failures may
		// run, and 7 < 21 must win).
		if w == 1 && err.Error() != "boom at 7" {
			t.Fatalf("workers=%d: got %v, want boom at 7", w, err)
		}
		if err.Error() != "boom at 7" && err.Error() != "boom at 21" {
			t.Fatalf("workers=%d: unexpected error %v", w, err)
		}
	}
}

// TestErrorStopsDispatch checks items after a serial failure are skipped.
func TestErrorStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	sentinel := errors.New("stop")
	err := ForEach(bg, indices(1000), Options{Workers: 1}, func(i, v int) error {
		ran.Add(1)
		if v == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("ran %d items, want 4", n)
	}
}

// TestEmpty checks the degenerate cases.
func TestEmpty(t *testing.T) {
	got, err := Map(bg, nil, Options{}, func(i, v int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
	if err := ForEach(bg, []int{}, Options{Workers: 5}, func(i, v int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestSetDefaultWorkers checks the global override round-trips and that
// DefaultWorkers honours it.
func TestSetDefaultWorkers(t *testing.T) {
	prev := SetDefaultWorkers(3)
	defer SetDefaultWorkers(prev)
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers=%d, want 3", got)
	}
	if old := SetDefaultWorkers(0); old != 3 {
		t.Fatalf("Swap returned %d, want 3", old)
	}
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers=%d after reset", got)
	}
}

// TestWorkersEnv checks the SYMBIOS_WORKERS fallback.
func TestWorkersEnv(t *testing.T) {
	prev := SetDefaultWorkers(0)
	defer SetDefaultWorkers(prev)
	t.Setenv("SYMBIOS_WORKERS", "5")
	if got := DefaultWorkers(); got != 5 {
		t.Fatalf("DefaultWorkers=%d, want 5", got)
	}
	t.Setenv("SYMBIOS_WORKERS", "garbage")
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers=%d with bad env", got)
	}
}

// indices returns {0, 1, ..., n-1}, an item list for indexed work.
func indices(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// TestForEachRecoversWorkerPanic checks that a panic inside a worker
// goroutine is re-raised on the caller as a *PanicError naming the failing
// item, instead of killing the process anonymously.
func TestForEachRecoversWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				pe, ok := v.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T (%v), want *PanicError", workers, v, v)
				}
				if pe.Index != 3 {
					t.Errorf("workers=%d: PanicError.Index=%d, want 3", workers, pe.Index)
				}
				if pe.Value != "boom" {
					t.Errorf("workers=%d: PanicError.Value=%v, want boom", workers, pe.Value)
				}
				if len(pe.Stack) == 0 {
					t.Errorf("workers=%d: PanicError carries no stack", workers)
				}
			}()
			_ = ForEach(bg, indices(8), Options{Workers: workers}, func(i, _ int) error {
				if i == 3 {
					panic("boom")
				}
				return nil
			})
			t.Fatalf("workers=%d: ForEach returned instead of panicking", workers)
		}()
	}
}

// TestForEachPanicLowestIndexWins checks the determinism rule for
// concurrent panics: the re-raised PanicError is the lowest-indexed one.
func TestForEachPanicLowestIndexWins(t *testing.T) {
	items := indices(4)
	for trial := 0; trial < 20; trial++ {
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok || pe.Index >= 2 {
					t.Fatalf("recovered %v, want PanicError with index < 2", pe)
				}
			}()
			var gate sync.WaitGroup
			gate.Add(2)
			_ = ForEach(bg, items, Options{Workers: 2}, func(i, _ int) error {
				if i < 2 {
					// Both workers panic together, so either order is
					// possible at the recover site without the index rule.
					gate.Done()
					gate.Wait()
					panic(i)
				}
				return nil
			})
		}()
	}
}

// TestCancelStopsFanout checks a mid-run cancellation at both dispatch
// paths: once the context is cancelled no new items are claimed and the call
// reports the context's error.
func TestCancelStopsFanout(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEach(ctx, indices(100), Options{Workers: workers}, func(i, _ int) error {
			if ran.Add(1) >= 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 100 {
			t.Fatalf("workers=%d: all %d items ran despite cancellation", workers, n)
		}
	}
}

// TestErrorFiresCancelToken checks the sibling-abort pattern a caller builds
// from a derived context: the failing item cancels it, an in-flight sibling
// that polls it aborts, and the reported error is the real failure, not the
// sibling's abort error even though the sibling has the lower index.
func TestErrorFiresCancelToken(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	err := ForEach(ctx, indices(2), Options{Workers: 2}, func(i, _ int) error {
		if i == 0 {
			<-started
			<-ctx.Done()
			return fmt.Errorf("item 0: %w", ctx.Err())
		}
		close(started)
		cancel()
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the root-cause error", err)
	}
}

// TestSerialPathCancelAndPanic covers the workers=1 loop: it polls the
// context before every item, so a cancellation raised by item i stops the
// loop exactly after it, and a panic after a cancel is never reached.
func TestSerialPathCancelAndPanic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int
	err := ForEach(ctx, indices(5), Options{Workers: 1}, func(i, _ int) error {
		ran++
		if i == 2 {
			cancel()
		}
		if i > 2 {
			panic("item ran after the context was cancelled")
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d items, want 3", ran)
	}
}

// TestContextAbortsFanout checks both dispatch paths: a pre-cancelled
// context runs nothing and the error is the context's.
func TestContextAbortsFanout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(ctx, indices(50), Options{Workers: workers}, func(i, _ int) error {
			ran.Add(1)
			return nil
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err=%v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("workers=%d: %d items ran under a cancelled context", workers, n)
		}
	}
}

// TestContextDeadlineSurfaces checks a deadline abort is distinguishable:
// the fan-out error matches context.DeadlineExceeded.
func TestContextDeadlineSurfaces(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := ForEach(ctx, indices(10_000), Options{Workers: 2}, func(i, _ int) error {
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded", err)
	}
}

// TestContextErrorNotMaskedByRacingWorkerFailure: when a worker reports an
// abort error of its own (here context.Canceled, a side effect) in a race
// with the fan-out context's deadline, the returned error is the context's,
// so the deadline stays visible.
func TestContextErrorNotMaskedByRacingWorkerFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := ForEach(ctx, indices(4), Options{Workers: 2}, func(i, _ int) error {
		<-ctx.Done()
		return context.Canceled // side effect, not root cause
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want context.DeadlineExceeded to surface", err)
	}
}

// TestRealErrorBeatsContextAbort checks the precedence rule: a genuine item
// failure is the root cause and wins over the simultaneous context abort.
func TestRealErrorBeatsContextAbort(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEach(ctx, indices(2), Options{Workers: 2}, func(i, _ int) error {
		if i == 0 {
			cancel()
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the root-cause item error", err)
	}
}
