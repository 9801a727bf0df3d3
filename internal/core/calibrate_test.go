package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/cpu"
	"symbios/internal/workload"
)

// pollCtx is a context that answers its first after Err polls with nil and
// every later one with cancellation, counting them: a deterministic stand-in
// for a deadline firing mid-calibration.
type pollCtx struct {
	context.Context
	after int64
	polls atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSoloRateCancelWithinOneChunk: calibration polls its context between
// fixed-size chunks of cycles, so a cancellation stops it before the next
// chunk — an interval that would otherwise simulate for hours returns at
// once, having polled exactly once more than it was allowed to proceed.
func TestSoloRateCancelWithinOneChunk(t *testing.T) {
	mix := workload.MustMix("Jsb(4,2,2)")
	jobs, err := mix.Build(9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.Default21264(mix.SMTLevel)
	const forever = 1 << 50

	ctx := &pollCtx{Context: context.Background(), after: 3}
	if _, err := SoloRate(ctx, cfg, jobs[0], 1, forever, forever); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if got := ctx.polls.Load(); got != 4 {
		t.Errorf("%d context polls, want 4: three chunks run, the fourth refused", got)
	}

	// The fan-out form is bounded by the same context.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = SoloRates(dead, cfg, jobs, []uint64{1, 2, 3, 4}, forever, forever)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SoloRates err=%v, want context.Canceled", err)
	}
}

// TestSoloRatesMatchUnchunkedReference: the poll chunks change no bit. An
// un-cancelled calibration reproduces the rates of the reference procedure —
// one uninterrupted Run per interval on a fresh core — at intervals that are
// and are not multiples of the chunk, including a two-thread job.
func TestSoloRatesMatchUnchunkedReference(t *testing.T) {
	mix := workload.MustMix("Jpb(10,2,2)")
	jobs, err := mix.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.Default21264(mix.SMTLevel)
	seeds := make([]uint64, len(jobs))
	for i := range seeds {
		seeds[i] = uint64(100 + i)
	}
	const warmup, measure = 2*soloPoll + 12_345, soloPoll + 777

	var want []float64
	for i, j := range jobs {
		r, err := workload.NewJob(j.Spec, j.ID, seeds[i])
		if err != nil {
			t.Fatal(err)
		}
		c, err := cpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < r.Threads(); th++ {
			c.Attach(th, r.Source(th), 0, r.Gate(), th)
		}
		c.Run(warmup)
		before := make([]uint64, r.Threads())
		for th := range before {
			before[th] = c.ThreadCommitted(th)
		}
		c.Run(measure)
		for th := range before {
			want = append(want, float64(c.ThreadCommitted(th)-before[th])/float64(measure))
		}
	}

	got, err := SoloRates(context.Background(), cfg, jobs, seeds, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked calibration diverged from the unchunked reference:\n got %v\nwant %v", got, want)
	}
}
