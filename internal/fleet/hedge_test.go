package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"symbios/internal/leakcheck"
	"symbios/internal/obs"
	"symbios/internal/resilience"
)

// TestLatencyTrackerWarmup checks the delay stays at max until enough
// observations accumulate — hedging on no evidence is just doubled load.
func TestLatencyTrackerWarmup(t *testing.T) {
	lt := newLatencyTracker(64, 0.95, 10*time.Millisecond, time.Second, 5)
	if d := lt.Delay(); d != time.Second {
		t.Fatalf("unwarmed Delay = %v, want max (1s)", d)
	}
	for i := 0; i < 4; i++ {
		lt.Observe(20 * time.Millisecond)
	}
	if d := lt.Delay(); d != time.Second {
		t.Fatalf("Delay before warmup complete = %v, want max", d)
	}
	lt.Observe(20 * time.Millisecond)
	if d := lt.Delay(); d != 20*time.Millisecond {
		t.Fatalf("warmed Delay = %v, want 20ms", d)
	}
}

// TestLatencyTrackerQuantileAndClamp checks the delay tracks the requested
// quantile of the window and clamps to [min, max].
func TestLatencyTrackerQuantileAndClamp(t *testing.T) {
	lt := newLatencyTracker(100, 0.90, 10*time.Millisecond, time.Second, 10)
	// 95 fast samples, 5 slow: p90 sits in the fast mass.
	for i := 0; i < 95; i++ {
		lt.Observe(30 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		lt.Observe(800 * time.Millisecond)
	}
	if d := lt.Delay(); d != 30*time.Millisecond {
		t.Fatalf("p90 Delay = %v, want 30ms", d)
	}

	// All samples under min: clamps up.
	lt2 := newLatencyTracker(32, 0.9, 50*time.Millisecond, time.Second, 1)
	lt2.Observe(time.Millisecond)
	if d := lt2.Delay(); d != 50*time.Millisecond {
		t.Fatalf("under-min Delay = %v, want 50ms", d)
	}
	// All samples over max: clamps down.
	lt3 := newLatencyTracker(32, 0.9, 10*time.Millisecond, 100*time.Millisecond, 1)
	lt3.Observe(10 * time.Second)
	if d := lt3.Delay(); d != 100*time.Millisecond {
		t.Fatalf("over-max Delay = %v, want 100ms", d)
	}
}

// TestLatencyTrackerWindowSlides checks old samples age out of the ring.
func TestLatencyTrackerWindowSlides(t *testing.T) {
	lt := newLatencyTracker(16, 0.5, time.Millisecond, time.Minute, 1)
	for i := 0; i < 16; i++ {
		lt.Observe(time.Second)
	}
	// Overwrite the whole ring with fast samples.
	for i := 0; i < 16; i++ {
		lt.Observe(5 * time.Millisecond)
	}
	if d := lt.Delay(); d != 5*time.Millisecond {
		t.Fatalf("post-slide Delay = %v, want 5ms (old seconds aged out)", d)
	}
}

// sortPerReadTracker is the tracker as it was before the window was kept
// sorted: a ring of samples, copied and sorted on every Delay. It stays here
// as the reference the incremental tracker must match value for value.
type sortPerReadTracker struct {
	samples      []time.Duration
	next, filled int

	quantile float64
	min, max time.Duration
	warmup   int
}

// referenceFor builds the reference with lt's (normalised) parameters.
func referenceFor(lt *latencyTracker) *sortPerReadTracker {
	return &sortPerReadTracker{
		samples:  make([]time.Duration, len(lt.ring)),
		quantile: lt.quantile, min: lt.min, max: lt.max, warmup: lt.warmup,
	}
}

func (r *sortPerReadTracker) Observe(d time.Duration) {
	r.samples[r.next] = d
	r.next = (r.next + 1) % len(r.samples)
	if r.filled < len(r.samples) {
		r.filled++
	}
}

func (r *sortPerReadTracker) Delay() time.Duration {
	if r.filled < r.warmup {
		return r.max
	}
	tmp := make([]time.Duration, r.filled)
	copy(tmp, r.samples[:r.filled])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(r.quantile * float64(len(tmp)))
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	d := tmp[idx]
	if d < r.min {
		d = r.min
	}
	if d > r.max {
		d = r.max
	}
	return d
}

// TestLatencyTrackerMatchesSortPerRead is the exactness property: over
// seeded random observation sequences — windows that wrap several times,
// heavy duplicates, samples outside the clamp, warm-up gates below and above
// the window — the incremental tracker's Delay equals the sort-per-read
// reference after every single step.
func TestLatencyTrackerMatchesSortPerRead(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		window := r.Intn(80) // < 16 exercises the window floor
		quantile := []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0, 1, r.Float64()}[r.Intn(8)]
		lo := time.Duration(r.Intn(30)) * time.Millisecond // 0 exercises the default floor
		hi := time.Duration(r.Intn(300)) * time.Millisecond
		warmup := r.Intn(100) // may exceed the window: then the tracker never warms
		lt := newLatencyTracker(window, quantile, lo, hi, warmup)
		ref := referenceFor(lt)

		distinct := 1 + r.Intn(12) // few distinct values: duplicates everywhere
		for step := 0; step < 5*len(lt.ring); step++ {
			var d time.Duration
			if r.Intn(4) == 0 {
				d = time.Duration(r.Int63n(int64(time.Second)))
			} else {
				d = time.Duration(r.Intn(distinct)) * 7 * time.Millisecond
			}
			lt.Observe(d)
			ref.Observe(d)
			if got, want := lt.Delay(), ref.Delay(); got != want {
				t.Fatalf("seed %d step %d (window %d q %.3f clamp [%s,%s] warmup %d): Delay = %s, sort-per-read reference = %s",
					seed, step, len(lt.ring), lt.quantile, lt.min, lt.max, lt.warmup, got, want)
			}
		}
	}
}

// TestLatencyTrackerAllocFree pins the read as a plain load and the write as
// an in-place shift: neither allocates once the tracker exists.
func TestLatencyTrackerAllocFree(t *testing.T) {
	lt := newLatencyTracker(hedgeWindow, 0.95, time.Millisecond, time.Second, 20)
	for i := 0; i < 2*hedgeWindow; i++ {
		lt.Observe(time.Duration(i%37) * time.Millisecond)
	}
	if n := testing.AllocsPerRun(1000, func() { lt.Delay() }); n != 0 {
		t.Fatalf("Delay allocates %v times per call, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() { i++; lt.Observe(time.Duration(i%41) * time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", n)
	}
}

// count reads how many samples the window holds.
func (lt *latencyTracker) count() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.sorted)
}

// cacheAwareHandler answers like a sosd with a response cache: bodies in
// cached are X-Cache: hit at once, anything else is X-Cache: miss after
// missLatency.
func cacheAwareHandler(cached *sync.Map, missLatency time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "application/json")
		if _, ok := cached.Load(string(body)); ok {
			w.Header().Set("X-Cache", "hit")
		} else {
			time.Sleep(missLatency)
			w.Header().Set("X-Cache", "miss")
		}
		io.WriteString(w, `{"ok":1}`)
	}
}

// TestFrontHedgesByClass is the mixed-stream case the pooled tracker got
// wrong: 99 % repeat bodies answered from cache in well under a millisecond
// beside distinct bodies that take a 60 ms evaluation. Pooled, the hits drag
// the tracked quantile to the floor and every miss is hedged (evaluated
// twice); by class, every miss after warm-up arms the rank window's own
// quantile, which is at least the miss latency because that window holds
// only misses — while a repeat body whose primary stalls is still hedged at
// the cached delay, misses flowing or not. The test asserts the armed delay,
// not how many hedges fired: that count depends on wall-clock latency and
// so on host load.
func TestFrontHedgesByClass(t *testing.T) {
	leakcheck.Check(t)
	const (
		missLatency = 60 * time.Millisecond
		misses      = 30
		warmMisses  = 10 // misses before the count starts
		hitsPerMiss = 99
	)
	var cached sync.Map
	a := newFakeBackend(t, cacheAwareHandler(&cached, missLatency))
	b := newFakeBackend(t, cacheAwareHandler(&cached, missLatency))
	f := newTestFront(t, []*fakeBackend{a, b}, func(cfg *Config) {
		cfg.HedgeQuantile = 0.95
		cfg.HedgeMin = 5 * time.Millisecond
		cfg.HedgeMax = time.Second
		cfg.HedgeWarmup = 5
		// Both replicas bank credit fast, so the budget never hides a hedge
		// the timer asked for.
		cfg.Budget = resilience.BudgetConfig{Ratio: 1, Cap: 100}
	})
	// One repeat body per primary keeps both backends' budgets funded.
	repeats := [][]byte{bodyWithPrimary(t, f, a.ts.URL), bodyWithPrimary(t, f, b.ts.URL)}
	for _, body := range repeats {
		cached.Store(string(body), true)
	}

	dispatch := func(body []byte) *Result {
		t.Helper()
		res, err := f.Dispatch(context.Background(), body)
		if err != nil || res.Status != http.StatusOK {
			t.Fatalf("Dispatch(%s) = %v, %v", body, res, err)
		}
		return res
	}
	for m := 0; m < misses; m++ {
		for h := 0; h < hitsPerMiss; h++ {
			if res := dispatch(repeats[h%2]); res.Header.Get("X-Cache") != "hit" {
				t.Fatalf("repeat body answered X-Cache %q, want hit", res.Header.Get("X-Cache"))
			}
		}
		// Distinct bodies: seeds far from anything bodyWithPrimary scanned.
		miss := scheduleBody(1_000_000 + uint64(m))
		// The pooled tracker armed every miss at the hits' few ms.
		if d := f.hedge.delay(shardOf(miss)); m >= warmMisses && d < missLatency {
			t.Fatalf("miss %d arms its hedge at %s, before the %s a miss takes", m, d, missLatency)
		}
		if res := dispatch(miss); res.Header.Get("X-Cache") != "miss" {
			t.Fatalf("distinct body answered X-Cache %q, want miss", res.Header.Get("X-Cache"))
		}
	}
	cachedDelay, rankDelay := f.hedge.byClass[reqCached].Delay(), f.hedge.byClass[reqRank].Delay()
	if cachedDelay >= missLatency/2 || rankDelay < missLatency {
		t.Fatalf("delays cached=%s rank=%s, want a hit's few ms and at least the %s a miss takes", cachedDelay, rankDelay, missLatency)
	}

	// Hit-tail protection is unchanged: stall the repeat body's primary and
	// the duplicate goes out at the cached delay, not the rank one.
	stalled := repeats[0]
	if got := f.hedge.delay(shardOf(stalled)); got != cachedDelay {
		t.Fatalf("repeat body arms at %s, want the cached delay %s", got, cachedDelay)
	}
	a.set(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	before := f.Stats()
	start := time.Now()
	res := dispatch(stalled)
	if res.Backend != b.ts.URL || res.Header.Get("X-Cache") != "hit" {
		t.Fatalf("stalled repeat served by %s (X-Cache %q), want the hedge to %s", res.Backend, res.Header.Get("X-Cache"), b.ts.URL)
	}
	if el := time.Since(start); el >= rankDelay {
		t.Fatalf("stalled repeat took %s, no sooner than a rank-class hedge (%s) would have fired", el, rankDelay)
	}
	if st := f.Stats(); st.Hedges != before.Hedges+1 || st.HedgeWins != before.HedgeWins+1 {
		t.Fatalf("hedges %d->%d wins %d->%d, want one hedge and one win", before.Hedges, st.Hedges, before.HedgeWins, st.HedgeWins)
	}
}

// TestFrontHedgeClassMisprediction checks the two halves of the class rule
// stay apart: a prediction only chooses which window arms the timer, and an
// observation is filed under what the answer proved. A seen body the backend
// has since evicted is predicted cached but observed into rank; an adaptive
// body never arms from (or lands in) the rank window. Each request has one
// candidate, so no hedge can launch and add an observation: the window
// counts below hold whatever the host's latency.
func TestFrontHedgeClassMisprediction(t *testing.T) {
	leakcheck.Check(t)
	var cached sync.Map
	a := newFakeBackend(t, cacheAwareHandler(&cached, 0))
	b := newFakeBackend(t, cacheAwareHandler(&cached, 0))
	f := newTestFront(t, []*fakeBackend{a, b}, func(cfg *Config) {
		cfg.Replicas = 1
		cfg.HedgeMin = time.Millisecond
		cfg.HedgeMax = time.Hour
		cfg.HedgeWarmup = 5
	})
	dispatch := func(body []byte) {
		t.Helper()
		if res, err := f.Dispatch(context.Background(), body); err != nil || res.Status != http.StatusOK {
			t.Fatalf("Dispatch(%s) = %v, %v", body, res, err)
		}
	}
	counts := func() [numReqClasses]int {
		var n [numReqClasses]int
		for c, lt := range f.hedge.byClass {
			n[c] = lt.count()
		}
		return n
	}

	// Warm the rank window with fast distinct misses: rank now arms at a
	// loopback round trip, not HedgeMax.
	for seed := uint64(0); seed < 5; seed++ {
		dispatch(scheduleBody(seed))
	}
	if got := counts(); got != [numReqClasses]int{reqRank: 5} {
		t.Fatalf("after 5 rank misses the windows hold %v, want 5 in rank only", got)
	}
	if d := f.hedge.byClass[reqRank].Delay(); d >= time.Hour {
		t.Fatalf("rank delay = %s after 5 misses, want the warmed window's quantile", d)
	}

	// An adaptive body arms from its own, still unwarmed, window — so a 50 ms
	// adaptive run is not hedged on the strength of fast rank answers — and
	// its latency lands in the adaptive window.
	adaptive := []byte(`{"mix":"Jsb(6,3,3)","seed":77,"mode":"adaptive"}`)
	if d := f.hedge.delay(shardOf(adaptive)); d != time.Hour {
		t.Fatalf("adaptive body arms at %s, want the unwarmed HedgeMax", d)
	}
	slow := cacheAwareHandler(&cached, 50*time.Millisecond)
	a.set(slow)
	b.set(slow)
	dispatch(adaptive)
	if got := counts(); got != [numReqClasses]int{reqRank: 5, reqAdaptive: 1} {
		t.Fatalf("after the adaptive answer the windows hold %v, want it filed under adaptive", got)
	}
	fast := cacheAwareHandler(&cached, 0)
	a.set(fast)
	b.set(fast)

	// A body answered once is predicted cached from then on; hits warm the
	// cached window.
	x := scheduleBody(500)
	dispatch(x) // miss: filed under rank, remembered
	cached.Store(string(x), true)
	for i := 0; i < 5; i++ {
		dispatch(x)
	}
	if got := counts(); got != [numReqClasses]int{reqCached: 5, reqRank: 6, reqAdaptive: 1} {
		t.Fatalf("after a miss and 5 hits of one body the windows hold %v", got)
	}
	// The backend evicts it: still predicted cached (the timer arms from the
	// cached window), but the answer proves a miss and is filed under rank —
	// the cached window never sees an evaluation's latency.
	cached.Delete(string(x))
	if got, want := f.hedge.delay(shardOf(x)), f.hedge.byClass[reqCached].Delay(); got != want {
		t.Fatalf("seen body arms at %s, want the cached delay %s", got, want)
	}
	dispatch(x)
	if got := counts(); got != [numReqClasses]int{reqCached: 5, reqRank: 7, reqAdaptive: 1} {
		t.Fatalf("after the evicted body's miss the windows hold %v, want it filed under rank", got)
	}
	// A body never answered is predicted by its mode, whatever the cached
	// window says.
	if got, want := f.hedge.delay(shardOf(scheduleBody(501))), f.hedge.byClass[reqRank].Delay(); got != want {
		t.Fatalf("unseen body arms at %s, want the rank delay %s", got, want)
	}
}

// TestFrontHedgeCachelessFleetFallsBackToMode checks the one fallback in the
// prediction: with backends that never answer from cache the cached window
// never warms, and a repeat body is hedged by its mode's window instead of
// waiting out HedgeMax forever.
func TestFrontHedgeCachelessFleetFallsBackToMode(t *testing.T) {
	h := newHedgeDelays(0.95, time.Millisecond, time.Hour, 5)
	req := shardOf(scheduleBody(1))
	miss := http.Header{"X-Cache": []string{"miss"}}
	for i := 0; i < 5; i++ {
		h.observe(req, miss, 30*time.Millisecond)
	}
	if d := h.delay(req); d != 30*time.Millisecond {
		t.Fatalf("repeat body on a cacheless fleet arms at %s, want the rank window's 30ms", d)
	}
}

// TestFrontHedgeDelayObservability checks the hedge delay is visible where
// the other front series are: one fleet_hedge_delay_seconds gauge per request
// class (three series, bounded) and the same values in /statz — while
// fleet_hedges_total stays the single unlabelled series the benchmark reads
// by exact name.
func TestFrontHedgeDelayObservability(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	var cached sync.Map
	a := newFakeBackend(t, cacheAwareHandler(&cached, 0))
	b := newFakeBackend(t, cacheAwareHandler(&cached, 0))
	f := newTestFront(t, []*fakeBackend{a, b}, func(cfg *Config) {
		cfg.Registry = reg
		cfg.HedgeMin = 40 * time.Millisecond
		cfg.HedgeMax = 3 * time.Second
		cfg.HedgeWarmup = 2
	})
	for seed := uint64(0); seed < 2; seed++ { // warms rank only, to the 40 ms floor
		if _, err := f.Dispatch(context.Background(), scheduleBody(seed)); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var delays, hedges []string
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "fleet_hedge_delay_seconds"):
			delays = append(delays, line)
		case strings.HasPrefix(line, "fleet_hedges_total"):
			hedges = append(hedges, line)
		}
	}
	wantDelays := []string{
		`fleet_hedge_delay_seconds{class="adaptive"} 3`,
		`fleet_hedge_delay_seconds{class="cached"} 3`,
		`fleet_hedge_delay_seconds{class="rank"} 0.04`,
	}
	if !slices.Equal(delays, wantDelays) {
		t.Fatalf("hedge-delay series = %q, want %q", delays, wantDelays)
	}
	if !slices.Equal(hedges, []string{"fleet_hedges_total 0"}) {
		t.Fatalf("fleet_hedges_total series = %q, want the one unlabelled series", hedges)
	}

	raw, err := json.Marshal(f.Stats())
	if err != nil {
		t.Fatal(err)
	}
	if want := `"hedge_delay_ms":{"adaptive":3000,"cached":3000,"rank":40}`; !strings.Contains(string(raw), want) {
		t.Fatalf("/statz body %s lacks %s", raw, want)
	}
}
