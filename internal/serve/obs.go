package serve

import (
	"net/http"
	"strconv"
	"time"

	"symbios/internal/obs"
	"symbios/internal/resilience"
)

// serverObs holds sosd's resolved metric handles. The struct always
// exists on the server; with metrics disabled (nil registry) every handle
// inside is nil and all recording degrades to free no-ops, which is what
// keeps the obs-on/off byte-identity test honest — both configurations
// run the same code.
type serverObs struct {
	reg *obs.Registry

	// One latency histogram per pipeline stage, in pipeline order:
	// limiter -> decode -> cache -> breaker -> queue -> retry.
	stageLimiter *obs.Histogram
	stageDecode  *obs.Histogram
	stageCache   *obs.Histogram
	stageBreaker *obs.Histogram
	stageQueue   *obs.Histogram
	stageRetry   *obs.Histogram

	requestSeconds *obs.Histogram
	encodeFailures *obs.Counter
	cacheHits      *obs.Counter
	warmShards     *obs.Counter
	warmBytes      *obs.Counter

	// batchRequests counts the well-formed envelopes on /v1/schedule/batch.
	batchRequests *obs.Counter

	// tracer feeds SOS phase spans from the evaluator's adaptive runs into
	// obs_span_seconds. No JSONL sink in the service; spans surface only as
	// histogram series on /metrics.
	tracer *obs.Tracer
}

// newServerObs registers sosd's metric families. A nil registry yields
// the all-nil (disabled) handle set.
func newServerObs(reg *obs.Registry) *serverObs {
	o := &serverObs{reg: reg}
	if reg == nil {
		return o
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("sosd_stage_seconds",
			"Latency of each /v1/schedule pipeline stage.",
			nil, obs.L("stage", name))
	}
	o.stageLimiter = stage("limiter")
	o.stageDecode = stage("decode")
	o.stageCache = stage("cache")
	o.stageBreaker = stage("breaker")
	o.stageQueue = stage("queue")
	o.stageRetry = stage("retry")
	o.requestSeconds = reg.Histogram("sosd_http_request_seconds",
		"End-to-end latency of every HTTP request.", nil)
	o.encodeFailures = reg.Counter("sosd_encode_failures_total",
		"Responses whose JSON encoding failed (served as 500s).")
	o.cacheHits = reg.Counter("sosd_cache_hits_total",
		"Schedule requests answered from the response cache.")
	o.warmShards = reg.Counter("sosd_warm_shards_total",
		"Cached responses adopted from a fleet sibling during boot warm-up.")
	o.warmBytes = reg.Counter("sosd_warm_bytes_total",
		"Bytes transferred from fleet siblings during cache warm-up.")
	o.batchRequests = reg.Counter("sosd_batch_requests_total",
		"Batch envelopes admitted on /v1/schedule/batch.")
	o.tracer = obs.NewTracer(nil, reg)
	return o
}

// countBatchItem tallies one finished batch item by outcome: "hit" and
// "miss" for 200s (mirroring X-Cache), "error" for everything else. Series
// register lazily like the per-status request counter.
func (o *serverObs) countBatchItem(item BatchItem) {
	if o.reg == nil {
		return
	}
	result := "error"
	if item.Status == http.StatusOK {
		result = item.Cache
	}
	o.reg.Counter("sosd_batch_items_total",
		"Batch items answered, by outcome (hit, miss, error).",
		obs.L("result", result)).Inc()
}

// countRequest tallies one finished HTTP request by status code. Series
// are registered on first use per code; registration is idempotent and
// the exposition stays sorted, so lazily appearing codes are harmless.
func (o *serverObs) countRequest(code int) {
	if o.reg == nil {
		return
	}
	o.reg.Counter("sosd_http_requests_total",
		"HTTP requests served, by status code.",
		obs.L("code", strconv.Itoa(code))).Inc()
}

// brownoutTransition records one ladder step: a direction-labelled counter
// plus a tracer event (obs_events_total). Observability stays read-only —
// the transition has already happened when this runs.
func (o *serverObs) brownoutTransition(from, to int) {
	dir := "down"
	if to < from {
		dir = "up"
	}
	if o.reg != nil {
		o.reg.Counter("sosd_brownout_transitions_total",
			"Brownout ladder transitions, by direction (down = degrading).",
			obs.L("dir", dir)).Inc()
	}
	o.tracer.Event("brownout/" + dir)
}

// registerPipelineGauges exposes the live pipeline state (/statz's
// numbers, continuously scrapeable). Scrape-time evaluation keeps them
// exact without per-request bookkeeping; each fn takes only its stage's
// own lock.
func (o *serverObs) registerPipelineGauges(s *Server) {
	if o.reg == nil {
		return
	}
	o.reg.GaugeFunc("sosd_limiter_admitted", "Requests admitted by the rate limiter.",
		func() float64 { return float64(s.limiter.Stats().Admitted) })
	o.reg.GaugeFunc("sosd_limiter_shed", "Requests shed by the rate limiter.",
		func() float64 { return float64(s.limiter.Stats().Shed) })
	o.reg.GaugeFunc("sosd_breaker_state", "Circuit breaker state: 0 closed, 1 half-open, 2 open.",
		func() float64 {
			switch s.breaker.State() {
			case resilience.Open:
				return 2
			case resilience.HalfOpen:
				return 1
			}
			return 0
		})
	o.reg.GaugeFunc("sosd_breaker_opens", "Times the circuit breaker has opened.",
		func() float64 { return float64(s.breaker.Stats().Opens) })
	o.reg.GaugeFunc("sosd_queue_depth", "Requests currently queued or running.",
		func() float64 { return float64(s.queue.Stats().Depth) })
	o.reg.GaugeFunc("sosd_queue_max_depth", "High-water mark of the work queue.",
		func() float64 { return float64(s.queue.Stats().MaxDepth) })
	o.reg.GaugeFunc("sosd_queue_rejected", "Requests rejected by the saturated queue.",
		func() float64 { return float64(s.queue.Stats().Rejected) })
	o.reg.GaugeFunc("sosd_queue_overloaded", "Requests shed by sojourn-based (CoDel) overload control.",
		func() float64 { return float64(s.queue.Stats().Overloaded) })
	o.reg.GaugeFunc("sosd_queue_oldest_age_seconds", "Age of the oldest queued request.",
		func() float64 { return s.queue.OldestAge().Seconds() })
	o.reg.GaugeFunc("sosd_queue_sojourn_seconds", "Smoothed queued-time (sojourn) estimate at dequeue.",
		func() float64 { return s.queue.SojournEstimate().Seconds() })
	o.reg.GaugeFunc("sosd_brownout_mode", "Current degradation mode (0 full service, 2 most degraded).",
		func() float64 { return float64(s.mode()) })
	o.reg.GaugeFunc("sosd_retry_budget_exhausted", "Retries denied because a client's budget ran out.",
		func() float64 { return float64(s.budgets.Exhausted()) })
	o.reg.GaugeFunc("sosd_draining", "1 while the server is draining for shutdown.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	if s.rec != nil {
		o.reg.GaugeFunc("sosd_cache_shards", "Responses held in the checkpoint-backed cache.",
			func() float64 { return float64(s.rec.Shards()) })
	}
}

// statusWriter captures the status code a handler writes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps the route table with per-request accounting. With
// metrics disabled it returns h untouched, so the disabled path adds not
// even a clock read.
func (o *serverObs) instrument(h http.Handler) http.Handler {
	if o.reg == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		o.requestSeconds.ObserveSince(t0)
		o.countRequest(sw.code)
	})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.obs.reg == nil {
		httpError(w, http.StatusNotFound, "metrics disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.obs.reg.WritePrometheus(w); err != nil {
		// Headers are gone; all we can do is log the broken scrape.
		s.logger.Printf("metrics write: %v", err)
	}
}
