package fleet

import (
	"context"
	"sync"
	"testing"
	"time"
)

// sinkDelay keeps the measured read from being optimised away.
var sinkDelay time.Duration

// BenchmarkTrackerDelay is the read every dispatch makes to arm its hedge
// timer, on a full, warmed window.
func BenchmarkTrackerDelay(b *testing.B) {
	lt := newLatencyTracker(hedgeWindow, 0.95, 20*time.Millisecond, 2*time.Second, 20)
	for i := 0; i < 2*hedgeWindow; i++ {
		lt.Observe(time.Duration(i%97) * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDelay = lt.Delay()
	}
}

// BenchmarkTrackerObserve is the write one verified 2xx costs: evict the
// oldest sample from the sorted window, insert the new one, republish.
func BenchmarkTrackerObserve(b *testing.B) {
	lt := newLatencyTracker(hedgeWindow, 0.95, 20*time.Millisecond, 2*time.Second, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lt.Observe(time.Duration(i%97) * time.Millisecond)
	}
}

// BenchmarkFrontDispatchCached is the front tier's unit of work on a hit: one
// repeat body through Dispatch (decode, singleflight, ring, hedge timer,
// attempt, digest check, latency filing) against in-process backends that
// answer X-Cache: hit at once, hedging tuned as cmd/sosfront's defaults are.
func BenchmarkFrontDispatchCached(b *testing.B) {
	body := scheduleBody(7)
	var cached sync.Map
	cached.Store(string(body), true)
	fakes := []*fakeBackend{
		newFakeBackend(b, cacheAwareHandler(&cached, 0)),
		newFakeBackend(b, cacheAwareHandler(&cached, 0)),
	}
	f := newTestFront(b, fakes, func(cfg *Config) {
		cfg.HedgeQuantile = 0.95
		cfg.HedgeMin = 20 * time.Millisecond
		cfg.HedgeMax = 2 * time.Second
		cfg.HedgeWarmup = 20
	})
	ctx := context.Background()
	// Fill the window first: the per-dispatch cost under test is the steady
	// state's, not the warm-up's.
	for i := 0; i < hedgeWindow; i++ {
		if _, err := f.Dispatch(ctx, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Dispatch(ctx, body); err != nil {
			b.Fatal(err)
		}
	}
}
