package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"symbios/internal/integrity"
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

// TestFrontDispatchHitAllocs is a ceiling on what one Dispatch of a cached
// answer allocates in BenchmarkFrontDispatchCachedInMemory, the canned
// response's own three allocations included. It was 77 allocations and
// 5 665 bytes before candidates read one snapshot per backend instead of
// building two slices and sorting them; lower the ceiling when a change
// lowers the count.
func TestFrontDispatchHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const maxAllocs, maxBytes = 75, 5632
	r := testing.Benchmark(BenchmarkFrontDispatchCachedInMemory)
	t.Logf("%d allocs, %d bytes per dispatch", r.AllocsPerOp(), r.AllocedBytesPerOp())
	if r.AllocsPerOp() > maxAllocs || r.AllocedBytesPerOp() > maxBytes {
		t.Errorf("a cached dispatch allocates %d times, %d bytes; the ceiling is %d, %d bytes",
			r.AllocsPerOp(), r.AllocedBytesPerOp(), maxAllocs, maxBytes)
	}
}

// cannedHit is a transport that answers every request in memory with the
// same digest-stamped X-Cache: hit, as a sosd holding the body in its cache
// would — no listener, no connection, no server goroutine. The header map
// is shared, read-only, by every response.
type cannedHit struct {
	header http.Header
	body   []byte
}

func newCannedHit(body []byte) cannedHit {
	h := http.Header{}
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", "hit")
	h.Set(integrity.Header, integrity.Digest(body))
	return cannedHit{header: h, body: body}
}

func (c cannedHit) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     c.header,
		Body:       io.NopCloser(bytes.NewReader(c.body)),
		Request:    req,
	}, nil
}

// BenchmarkFrontDispatchCachedInMemory is BenchmarkFrontDispatchCached with
// the backends taken out: Config.Client's transport answers every attempt
// in memory with a canned, digest-stamped hit, so allocs/op and B/op are the
// front's own work plus the canned response's, which canned-allocs/op
// reports on its own.
func BenchmarkFrontDispatchCachedInMemory(b *testing.B) {
	body := scheduleBody(7)
	hit := newCannedHit([]byte(`{"ok":1}`))
	f := newTestFront(b, nil, func(cfg *Config) {
		cfg.Backends = []string{"http://a.invalid", "http://b.invalid"}
		cfg.Client = &http.Client{Transport: hit, Timeout: 10 * time.Second}
		cfg.HedgeQuantile = 0.95
		cfg.HedgeMin = 20 * time.Millisecond
		cfg.HedgeMax = 2 * time.Second
		cfg.HedgeWarmup = 20
	})
	ctx := context.Background()
	for i := 0; i < hedgeWindow; i++ {
		if _, err := f.Dispatch(ctx, body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.Dispatch(ctx, body)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != http.StatusOK || res.Header.Get("X-Cache") != "hit" {
			b.Fatalf("dispatch answered %d, X-Cache %q; want a 200 hit", res.Status, res.Header.Get("X-Cache"))
		}
	}
	b.StopTimer()
	req, err := http.NewRequest(http.MethodPost, "http://a.invalid/v1/schedule", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(testing.AllocsPerRun(100, func() {
		resp, _ := hit.RoundTrip(req)
		resp.Body.Close()
	}), "canned-allocs/op")
}
