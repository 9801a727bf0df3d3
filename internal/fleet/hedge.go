package fleet

import (
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// reqClass is a request class the front can observe. Latency differs by
// orders of magnitude between them (a cache hit is under a millisecond, a
// rank miss ~100 ms, an adaptive run longer still), so each has its own
// hedge-delay window: pooled, a hit-dominated stream drags the tracked
// quantile to the floor and every miss is hedged — evaluated twice — for
// nothing.
type reqClass uint8

const (
	// reqCached is a body the backend answers from its response cache.
	reqCached reqClass = iota
	// reqRank is an evaluated "mode":"rank" request (the default mode).
	reqRank
	// reqAdaptive is an evaluated "mode":"adaptive" request.
	reqAdaptive
	numReqClasses
)

// reqClassNames label the per-class series and /statz fields.
var reqClassNames = [numReqClasses]string{"cached", "rank", "adaptive"}

// hedgeWindow is each class's sample window: the tail estimate should track
// the last few seconds of that class's behaviour, not the deployment's
// whole history.
const hedgeWindow = 256

// seenSlots sizes the direct-mapped set of body hashes already answered
// (32 KB). It only has to hold the hot set a front is relaying right now; a
// colliding or evicted body is predicted by its mode until its next answer.
const seenSlots = 1 << 12

// hedgeDelays times the hedge by request class. The class is predicted
// before the answer (to arm the timer) and proven by the answer (to file the
// latency), and the two are kept apart: a prediction only picks which
// window's delay arms the timer, an observation lands in the window the
// answer proved, so a misprediction mis-times one hedge — bounded by the
// hedge budget like any other — and never pollutes a window or changes a
// byte.
type hedgeDelays struct {
	byClass [numReqClasses]*latencyTracker
	// seen holds the body hashes of verified 2xx answers, one per slot,
	// lock-free and allocation-free. Zero is the empty slot (a body hashing
	// to 0 is merely mispredicted).
	seen [seenSlots]atomic.Uint64
}

// newHedgeDelays builds one tracker per class from the shared hedge tuning.
func newHedgeDelays(quantile float64, min, max time.Duration, warmup int) *hedgeDelays {
	h := &hedgeDelays{}
	for c := range h.byClass {
		h.byClass[c] = newLatencyTracker(hedgeWindow, quantile, min, max, warmup)
	}
	return h
}

// delay returns the hedge delay to arm for req: the cached window's when
// this front has already relayed a 2xx for these exact bytes, else its
// mode's. A predicted hit falls back to the mode's window while the cached
// window is unwarmed, so a fleet whose backends never answer from cache
// (sosd without -checkpoint) hedges repeats by their mode instead of
// waiting on a window that will never fill.
func (h *hedgeDelays) delay(req *request) time.Duration {
	if h.seen[req.hash%seenSlots].Load() == req.hash {
		if d, warm := h.byClass[reqCached].current(); warm {
			return d
		}
	}
	return h.byClass[req.mode].Delay()
}

// observe files one verified 2xx attempt's latency under the class the
// answer proved — X-Cache: hit is cached, anything else is the request's
// mode — and remembers the body as answered.
func (h *hedgeDelays) observe(req *request, header http.Header, d time.Duration) {
	class := req.mode
	if header.Get("X-Cache") == "hit" {
		class = reqCached
	}
	h.byClass[class].Observe(d)
	h.seen[req.hash%seenSlots].Store(req.hash)
}

// latencyTracker estimates a high quantile of one class's recent successful
// request latencies; the hedge delay is that quantile, clamped. A fixed-size
// window of exact samples beats a streaming sketch here: the window is small
// and kept in sorted order as samples arrive, so the estimate is recomputed
// once per observation and reading it — every dispatch arms a timer from
// it — is a single atomic load.
type latencyTracker struct {
	mu     sync.Mutex
	ring   []time.Duration // arrival order; ring[next] is the oldest once full
	sorted []time.Duration // the same samples, ascending
	next   int

	// delay is the current estimate, clamped; 0 while under-observed (a
	// warmed delay is at least min, which is positive).
	delay atomic.Int64

	quantile float64
	min, max time.Duration
	warmup   int // observations required before the estimate is trusted
}

// newLatencyTracker clamps the hedge delay to [lo, hi] and reports hi until
// warmup observations have accumulated (hedging on no evidence would just
// double the load). quantile outside (0,1) selects 0.95.
func newLatencyTracker(window int, quantile float64, lo, hi time.Duration, warmup int) *latencyTracker {
	window = max(window, 16)
	if quantile <= 0 || quantile >= 1 {
		quantile = 0.95
	}
	orDefault(&lo, 10*time.Millisecond)
	hi = max(hi, lo)
	orDefault(&warmup, 20)
	return &latencyTracker{
		ring:     make([]time.Duration, window),
		sorted:   make([]time.Duration, 0, window),
		quantile: quantile,
		min:      lo,
		max:      hi,
		warmup:   warmup,
	}
}

// Observe records one successful request's latency: the oldest sample
// leaves the sorted window once it is full, the new one is inserted in
// order, and the delay is recomputed.
func (lt *latencyTracker) Observe(d time.Duration) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	s := lt.sorted
	if len(s) == len(lt.ring) {
		i, _ := slices.BinarySearch(s, lt.ring[lt.next])
		s = slices.Delete(s, i, i+1)
	}
	i, _ := slices.BinarySearch(s, d)
	s = slices.Insert(s, i, d)
	lt.sorted = s
	lt.ring[lt.next] = d
	lt.next = (lt.next + 1) % len(lt.ring)

	if len(s) < lt.warmup {
		return
	}
	idx := min(int(lt.quantile*float64(len(s))), len(s)-1)
	lt.delay.Store(int64(min(max(s[idx], lt.min), lt.max)))
}

// current returns the hedge delay and whether the window has warmed up.
func (lt *latencyTracker) current() (time.Duration, bool) {
	if d := lt.delay.Load(); d != 0 {
		return time.Duration(d), true
	}
	return lt.max, false
}

// Delay returns the current hedge delay: the tracked quantile of recent
// latencies clamped to [min, max], or max while under-observed.
func (lt *latencyTracker) Delay() time.Duration {
	d, _ := lt.current()
	return d
}
