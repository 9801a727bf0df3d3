package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"symbios/internal/checkpoint"
	"symbios/internal/core"
	"symbios/internal/integrity"
	"symbios/internal/obs"
	"symbios/internal/resilience"
	"symbios/internal/rng"
	"symbios/internal/workload"
)

// serverConfig collects every policy knob the flags set.
type serverConfig struct {
	Scale       string
	Chaos       float64 // -chaos: FailRate injected into every request
	DeadlineDef time.Duration
	DeadlineMax time.Duration
	Pprof       bool // -pprof: mount net/http/pprof under /debug/pprof/

	Rate    float64
	Burst   float64
	Queue   int
	Workers int

	BreakerWindow   int
	BreakerMin      int
	BreakerRate     float64
	BreakerCooldown time.Duration
	BreakerProbes   int

	RetryAttempts    int
	RetryBase        time.Duration
	RetryMax         time.Duration
	RetryBudgetRatio float64
	RetryBudgetCap   float64

	// QueueTarget, when positive, turns on CoDel-style sojourn shedding in
	// the work queue (see resilience.QueueConfig.SojournTarget).
	QueueTarget   time.Duration
	QueueInterval time.Duration

	// BrownoutPin selects the degradation ladder behavior: -1 runs the
	// hysteresis controller; 0..2 pins the mode (0, the zero value, is full
	// service — the pre-brownout behavior tests rely on).
	BrownoutPin      int
	BrownoutDown     time.Duration
	BrownoutUp       time.Duration
	BrownoutDownHold time.Duration
	BrownoutUpHold   time.Duration

	// Divergence, when positive, makes this replica answer a deterministic
	// fraction of schedule fingerprints with a perturbed body — a valid JSON
	// answer carrying a correct digest over *wrong* bytes. It models a
	// replica that is honestly wrong (bad warm cache, skewed deploy) so the
	// fleet tier's quarantine machinery has something real to convict. The
	// response cache always records the honest bytes, so cache exports never
	// spread the divergence to siblings.
	Divergence float64
	// DivergenceFor bounds the fault window: after this much uptime the
	// replica answers honestly again (0 means diverge forever), letting soaks
	// exercise quarantine *and* readmission in one run.
	DivergenceFor time.Duration
}

// brownoutModes is the ladder length: mode 0 full adaptive verdicts, mode 1
// predictor-rank-only, mode 2 cached or round-robin answers only.
const brownoutModes = 3

// server is the resilient scheduling service: every /v1/schedule request
// passes drain-gate -> admission limiter -> decode -> response cache ->
// circuit breaker -> deadline budget -> bounded queue -> budgeted retry ->
// evaluator, in that order.
type server struct {
	cfg  serverConfig
	eval *evaluator

	limiter *resilience.Limiter
	breaker *resilience.Breaker
	queue   *resilience.Queue
	budgets *resilience.BudgetPool
	rec     *checkpoint.Recorder

	// brownout walks the degradation ladder on measured queue sojourn; nil
	// when the mode is pinned (cfg.BrownoutPin >= 0).
	brownout *resilience.Brownout

	// base is the parent of every request context; hardStop cancels it so
	// in-flight machines abort at the next timeslice boundary.
	base     context.Context
	hardStop context.CancelFunc

	draining atomic.Bool
	// warming holds /readyz at 503 while the response cache is being
	// transferred from a fleet sibling on boot, so a front tier never routes
	// to a node that would answer cold what a sibling has already computed.
	warming atomic.Bool
	// started anchors the divergence fault window (cfg.DivergenceFor).
	started time.Time
	logger  *log.Logger

	// obs is never nil; with a nil registry every handle inside is a
	// no-op. Observability never feeds back into scheduling decisions.
	obs *serverObs
}

// newServer wires the pipeline. rec may be nil (no response cache); reg
// may be nil (metrics disabled, /metrics answers 404).
func newServer(cfg serverConfig, eval *evaluator, rec *checkpoint.Recorder, reg *obs.Registry, logger *log.Logger, onTransition func(from, to resilience.State)) *server {
	base, cancel := context.WithCancel(context.Background())
	srv := &server{
		cfg:  cfg,
		eval: eval,
		limiter: resilience.NewLimiter(resilience.LimiterConfig{
			Rate:  cfg.Rate,
			Burst: cfg.Burst,
		}),
		breaker: resilience.NewBreaker(resilience.BreakerConfig{
			Window:       cfg.BreakerWindow,
			MinSamples:   cfg.BreakerMin,
			ErrorRate:    cfg.BreakerRate,
			Cooldown:     cfg.BreakerCooldown,
			Probes:       cfg.BreakerProbes,
			OnTransition: onTransition,
		}),
		budgets:  resilience.NewBudgetPool(resilience.BudgetConfig{Ratio: cfg.RetryBudgetRatio, Cap: cfg.RetryBudgetCap}),
		rec:      rec,
		base:     base,
		hardStop: cancel,
		started:  time.Now(),
		logger:   logger,
		obs:      newServerObs(reg),
	}
	if cfg.BrownoutPin < 0 {
		srv.brownout = resilience.NewBrownout(resilience.BrownoutConfig{
			Modes:         brownoutModes,
			DownThreshold: cfg.BrownoutDown,
			UpThreshold:   cfg.BrownoutUp,
			DownHold:      cfg.BrownoutDownHold,
			UpHold:        cfg.BrownoutUpHold,
			OnTransition: func(from, to int) {
				srv.obs.brownoutTransition(from, to)
				logger.Printf("brownout: mode %d -> %d", from, to)
			},
		})
	}
	srv.queue = resilience.NewQueue(resilience.QueueConfig{
		Depth:           cfg.Queue,
		Workers:         cfg.Workers,
		SojournTarget:   cfg.QueueTarget,
		SojournInterval: cfg.QueueInterval,
		// Every dequeue's queued time feeds the ladder controller; a nil
		// brownout (pinned mode) ignores the feed.
		OnSojourn: func(d time.Duration) { srv.brownout.Observe(d) },
	})
	srv.obs.registerPipelineGauges(srv)
	// The evaluator shares the registry's simulator counters: every machine
	// it builds reports cycles, commits and per-resource conflicts.
	eval.sim = core.NewSimMetrics(reg)
	return srv
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("POST /v1/schedule/batch", s.handleScheduleBatch)
	mux.HandleFunc("GET /v1/mixes", s.handleMixes)
	mux.HandleFunc("GET /v1/cache/export", s.handleCacheExport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.obs.instrument(mux)
}

// answer is one response in wire form: the status, the exact bytes sent
// (body plus trailing newline) and the digest over those bytes, hashed and
// copied once. The same value renders as a whole /v1/schedule response or as
// one item of a batch envelope, which is what keeps the two byte-identical.
type answer struct {
	status int
	// cache is the X-Cache verdict of a schedule 200 ("hit" or "miss").
	cache string
	// retryAfter is the Retry-After hint in whole seconds; 0 sends none.
	retryAfter int
	wire       []byte
	digest     string
}

// newAnswer frames raw as a response body. The digest is computed over the
// exact bytes written, so a verifier hashing the body it read gets an
// equality check against the bytes this replica actually produced.
func newAnswer(status int, raw []byte) answer {
	wire := make([]byte, 0, len(raw)+1)
	wire = append(wire, raw...)
	wire = append(wire, '\n')
	return answer{status: status, wire: wire, digest: integrity.Digest(wire)}
}

// okAnswer frames cached-or-fresh schedule response bytes. The body is the
// recorded bytes verbatim either way, so identical requests get
// byte-identical responses; only the cache verdict differs.
func okAnswer(raw []byte, hit bool) answer {
	a := newAnswer(http.StatusOK, raw)
	a.cache = "miss"
	if hit {
		a.cache = "hit"
	}
	return a
}

// errorAnswer frames a JSON error body.
func errorAnswer(status int, format string, args ...any) answer {
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	return newAnswer(status, body)
}

// shedAnswer is an errorAnswer carrying a backoff hint derived from the
// shedding stage's own state (limiter refill, breaker cooldown, queue
// sojourn) instead of a constant: whole seconds, rounded up, at least 1.
func shedAnswer(status int, wait time.Duration, format string, args ...any) answer {
	a := errorAnswer(status, format, args...)
	a.retryAfter = int((wait + time.Second - 1) / time.Second)
	if a.retryAfter < 1 {
		a.retryAfter = 1
	}
	return a
}

// write sends the answer as a whole response. Errors are digest-stamped like
// everything else, so a verifying front can tell a genuine error answer from
// one a flaky wire mangled in transit.
func (a answer) write(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set(integrity.Header, a.digest)
	if a.cache != "" {
		h.Set("X-Cache", a.cache)
	}
	if a.retryAfter > 0 {
		h.Set("Retry-After", strconv.Itoa(a.retryAfter))
	}
	w.WriteHeader(a.status)
	w.Write(a.wire)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	errorAnswer(status, format, args...).write(w)
}

// clientID keys retry budgets: the X-Client-ID header when present, else
// the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// isTransient classifies evaluation errors worth retrying: only lost
// counter reads, the one failure the fault model designates recoverable.
func isTransient(err error) bool {
	return errors.Is(err, core.ErrCounterRead)
}

// mode returns the current degradation mode: the pinned value when the
// config pins one, else the brownout controller's verdict.
func (s *server) mode() int {
	if s.cfg.BrownoutPin >= 0 {
		return s.cfg.BrownoutPin
	}
	return s.brownout.Mode()
}

// gate samples the serving mode once per request and advertises it on every
// response — sheds included — so the fleet tier can steer new work toward
// the least-degraded replica; it refuses the request while draining.
func (s *server) gate(w http.ResponseWriter) (mode int, ok bool) {
	mode = s.mode()
	w.Header().Set("X-Brownout-Mode", strconv.Itoa(mode))
	if s.draining.Load() {
		shedAnswer(http.StatusServiceUnavailable, time.Second, "server draining").write(w)
		return mode, false
	}
	return mode, true
}

// admit charges the limiter one token per schedule request carried — a
// batch of n is the same admission load as n singletons — and sheds the
// whole request when the bucket cannot pay.
func (s *server) admit(w http.ResponseWriter, n int) bool {
	t0 := time.Now()
	allowed := s.limiter.AllowN(n)
	s.obs.stageLimiter.ObserveSince(t0)
	if !allowed {
		shedAnswer(http.StatusTooManyRequests, s.limiter.RetryAfter(n), "admission rate exceeded").write(w)
	}
	return allowed
}

// readBody reads a request body of at most limit bytes (one more is read so
// the decoder can reject an oversized body rather than parse a truncated one).
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil, false
	}
	return body, true
}

// handleSchedule answers one schedule request: a batch of one through the
// pipeline, rendered as a bare response.
func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	mode, ok := s.gate(w)
	if !ok || !s.admit(w, 1) {
		return
	}
	t0 := time.Now()
	body, ok := readBody(w, r, MaxRequestBytes)
	s.obs.stageDecode.ObserveSince(t0)
	if !ok {
		return
	}
	answers, refusal := s.schedule(r, mode, []json.RawMessage{body}, false)
	if refusal != nil {
		refusal.write(w)
		return
	}
	answers[0].write(w)
}

// schedule is the one pipeline every schedule request rides, singleton or
// batched: per item decode -> response cache, then once for the items the
// cache could not answer circuit breaker -> deadline budget -> bounded queue,
// and inside that single queue task per item budgeted retry -> evaluator ->
// cache record. It returns one answer per body, or a refusal when the request
// as a whole was turned away (breaker open, queue shed, deadline, cancel).
// Item failures are isolated: a malformed or failing item is that item's 4xx
// or 5xx, never its neighbours'. batched marks an envelope, whose items must
// be rank requests with distinct fingerprints.
func (s *server) schedule(r *http.Request, mode int, bodies []json.RawMessage, batched bool) ([]answer, *answer) {
	type work struct {
		idx int
		req ScheduleRequest
		key string
	}
	out := make([]answer, len(bodies))
	var evals []work
	seen := make(map[string]int, len(bodies))
	var deadlineMS int64
	for i, body := range bodies {
		t0 := time.Now()
		req, err := DecodeScheduleRequest(body)
		s.obs.stageDecode.ObserveSince(t0)
		if err != nil {
			out[i] = errorAnswer(http.StatusBadRequest, "%v", err)
			continue
		}
		if req.Fault != nil && s.eval.chaos == nil {
			out[i] = errorAnswer(http.StatusBadRequest, "fault injection requires a server started with -chaos")
			continue
		}
		if req.Mode == "adaptive" {
			if batched {
				// An envelope is one queue task under one deadline budget,
				// sized for rank evaluations; a full adaptive run costs many
				// times a ranking and would starve its batch-mates of both.
				out[i] = errorAnswer(http.StatusBadRequest, "mode \"adaptive\" is not batchable (send it to /v1/schedule)")
				continue
			}
			// Degradation ladder. Mode 1 answers adaptive requests with the
			// cheap predictor ranking (no adaptive simulation). The degraded
			// request's own fingerprint keys the cache, so a mode-1 answer is
			// keyed — and byte-identical to — a genuine rank request, and
			// never poisons a mode-0 adaptive entry.
			if mode >= 1 {
				req.Mode = "rank"
			}
		}
		key := req.Fingerprint()
		if first, dup := seen[key]; dup {
			// Two items with one fingerprint would race one cache slot and
			// waste one evaluation; a client batching duplicates is confused.
			out[i] = errorAnswer(http.StatusBadRequest, "duplicate of item %d in this batch", first)
			continue
		}
		seen[key] = i
		// One deadline budget for the whole request, clamped by server
		// policy: the most patient item's deadline bounds everyone (items
		// were grouped by a client that considers them one unit of work).
		if req.DeadlineMS > deadlineMS {
			deadlineMS = req.DeadlineMS
		}
		t0 = time.Now()
		var cached json.RawMessage
		hit, lerr := s.rec.Lookup(key, &cached)
		s.obs.stageCache.ObserveSince(t0)
		if lerr == nil && hit {
			s.obs.cacheHits.Inc()
			out[i] = okAnswer(s.maybeDiverge(key, cached), true)
			continue
		}
		evals = append(evals, work{idx: i, req: req, key: key})
	}
	if len(evals) == 0 {
		return out, nil
	}

	t0 := time.Now()
	report, err := s.breaker.Allow()
	s.obs.stageBreaker.ObserveSince(t0)
	if err != nil {
		a := shedAnswer(http.StatusServiceUnavailable, s.breaker.RetryAfter(), "%v", err)
		return nil, &a
	}

	// The request context inherits the client connection (disconnects
	// cancel) and the server's hard-stop, bounded by the deadline budget.
	ctx, cancel := resilience.WithBudget(r.Context(), time.Duration(deadlineMS)*time.Millisecond,
		s.cfg.DeadlineDef, s.cfg.DeadlineMax)
	defer cancel()
	stop := context.AfterFunc(s.base, cancel)
	defer stop()
	// SOS phase spans from the evaluator land in obs_span_seconds; a nil
	// tracer (metrics disabled) is carried as a no-op.
	ctx = obs.WithTracer(ctx, s.obs.tracer)

	// Cache miss at the ladder floor (mode 2): answer round-robin. The work
	// is a pure function of the request but still rides the queue, so dequeue
	// sojourn keeps feeding the brownout controller — recovery must never
	// depend on measurements that degradation itself has silenced.
	rr := mode >= 2
	client := clientID(r)
	failed := false // an evaluated item ended 5xx; read only once Do returned nil
	tQueue := time.Now()
	qerr := s.queue.Do(ctx, func(ctx context.Context) error {
		for _, wk := range evals {
			raw, err := s.evalBytes(ctx, wk.req, rr, client)
			switch {
			case err == nil:
				// Round-robin answers are deliberately uncached: once the
				// ladder recovers, the same fingerprint deserves a real
				// evaluation.
				if !rr {
					if rerr := s.rec.Record(wk.key, json.RawMessage(raw)); rerr != nil {
						s.logger.Printf("cache record: %v", rerr)
					}
				}
				out[wk.idx] = okAnswer(s.maybeDiverge(wk.key, raw), false)
			case ctx.Err() != nil:
				// A dead context fails the request, not the item: nothing
				// evaluated after it could finish either.
				return ctx.Err()
			case errors.Is(err, resilience.ErrBudgetExhausted), isTransient(err):
				out[wk.idx] = shedAnswer(http.StatusServiceUnavailable, time.Second, "%v", err)
				failed = true
			default:
				out[wk.idx] = errorAnswer(http.StatusInternalServerError, "%v", err)
				failed = true
			}
		}
		return nil
	})
	s.obs.stageQueue.ObserveSince(tQueue)

	// One outcome -> breaker verdict and status mapping for both shapes.
	var refusal answer
	switch {
	case qerr == nil:
		if failed {
			report(resilience.Failure)
		} else {
			report(resilience.Success)
		}
		return out, nil
	case errors.Is(qerr, resilience.ErrSaturated), errors.Is(qerr, resilience.ErrOverloaded), errors.Is(qerr, resilience.ErrDraining):
		// Never reached the backend: no verdict on its health. The hint is
		// the queue's own sojourn estimate — roughly how long new work is
		// currently waiting.
		report(resilience.Skipped)
		refusal = shedAnswer(http.StatusServiceUnavailable, s.queue.SojournEstimate(), "%v", qerr)
	case errors.Is(qerr, context.DeadlineExceeded):
		report(resilience.Failure)
		refusal = errorAnswer(http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(qerr, context.Canceled):
		// Client went away (or the server hard-stopped): not a backend fault.
		report(resilience.Skipped)
		refusal = errorAnswer(http.StatusServiceUnavailable, "request cancelled")
	default:
		report(resilience.Failure)
		refusal = errorAnswer(http.StatusInternalServerError, "%v", qerr)
	}
	return nil, &refusal
}

// maybeDiverge perturbs the response for a deterministic fraction of
// fingerprints while the divergence fault window is open: it injects a
// `"divergent":true` field into the JSON body, yielding a parseable answer
// that is byte-different from what every honest replica serves. The draw
// hashes the fingerprint, so the same request diverges on every ask (cache
// hits included) — exactly the repeatably-wrong replica the fleet tier's
// quarantine must catch. The caller records the honest bytes before calling,
// so the perturbation never enters the cache or its exports.
func (s *server) maybeDiverge(key string, raw []byte) []byte {
	if s.cfg.Divergence <= 0 {
		return raw
	}
	if s.cfg.DivergenceFor > 0 && time.Since(s.started) > s.cfg.DivergenceFor {
		return raw
	}
	h := fnv.New64a()
	io.WriteString(h, key)
	if rng.Float01(rng.Hash(h.Sum64(), saltDiverge)) >= s.cfg.Divergence {
		return raw
	}
	i := bytes.LastIndexByte(raw, '}')
	if i < 0 {
		return append(append([]byte{}, raw...), []byte(` divergent`)...)
	}
	out := make([]byte, 0, len(raw)+len(`,"divergent":true`))
	out = append(out, raw[:i]...)
	out = append(out, `,"divergent":true}`...)
	out = append(out, raw[i+1:]...)
	return out
}

// evalBytes produces the response bytes for one cache-missing request: the
// round-robin floor, or the evaluator under the client's retry budget.
func (s *server) evalBytes(ctx context.Context, req ScheduleRequest, rr bool, client string) ([]byte, error) {
	var resp *ScheduleResponse
	var err error
	if rr {
		resp, err = roundRobin(req)
	} else {
		t0 := time.Now()
		resp, err = s.predictWithRetry(ctx, req, client)
		s.obs.stageRetry.ObserveSince(t0)
	}
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		s.obs.encodeFailures.Inc()
		return nil, fmt.Errorf("encoding response: %v", err)
	}
	return raw, nil
}

// predictWithRetry runs the evaluation under the client's retry budget with
// full-jitter backoff. The jitter stream is seeded from the request, so a
// request's retry timing — like everything else about it — is deterministic.
func (s *server) predictWithRetry(ctx context.Context, req ScheduleRequest, client string) (*ScheduleResponse, error) {
	var resp *ScheduleResponse
	cfg := resilience.RetryConfig{
		MaxAttempts: s.cfg.RetryAttempts,
		BaseDelay:   s.cfg.RetryBase,
		MaxDelay:    s.cfg.RetryMax,
		Jitter: func(attempt int) float64 {
			return rng.Float01(rng.Hash2(req.Seed, uint64(attempt), saltJitter))
		},
	}
	err := resilience.Do(ctx, cfg, s.budgets.Get(client), isTransient, func(attempt int) error {
		var aerr error
		resp, aerr = s.eval.evaluate(ctx, req, attempt)
		return aerr
	})
	return resp, err
}

// writeJSON marshals v fully before touching the ResponseWriter, so an
// encoding failure yields a clean 500 instead of a silently truncated 200
// (json.NewEncoder(w).Encode commits the status line before it can fail).
// Failures are tallied in sosd_encode_failures_total.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.obs.encodeFailures.Inc()
		s.logger.Printf("encoding %T response: %v", v, err)
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(integrity.Header, integrity.Digest(body))
	w.WriteHeader(status)
	w.Write(body)
}

// handleMixes lists the schedulable jobmix labels.
func (s *server) handleMixes(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, workload.MixLabels())
}

// handleCacheExport serves the full response cache as a JSON snapshot —
// the transfer a restarted fleet sibling pulls to warm up before reporting
// ready. Export deep-copies under the recorder's lock, so serving it never
// blocks or races the request path.
func (s *server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		httpError(w, http.StatusNotFound, "no response cache (start with -checkpoint)")
		return
	}
	s.writeJSON(w, http.StatusOK, s.rec.Export())
}

// handleHealthz is liveness: the process is up.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz is readiness: accepting work (not draining, breaker closed
// enough to admit).
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.warming.Load() {
		httpError(w, http.StatusServiceUnavailable, "warming cache")
		return
	}
	if s.breaker.State() == resilience.Open {
		httpError(w, http.StatusServiceUnavailable, "circuit breaker open")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// serverStats is the /statz body.
type serverStats struct {
	Limiter  resilience.LimiterStats  `json:"limiter"`
	Breaker  resilience.BreakerStats  `json:"breaker"`
	Queue    resilience.QueueStats    `json:"queue"`
	Brownout resilience.BrownoutStats `json:"brownout"`
	Retries  struct {
		BudgetExhausted uint64 `json:"budget_exhausted"`
	} `json:"retries"`
	Cache struct {
		Hits   int `json:"hits"`
		Shards int `json:"shards"`
	} `json:"cache"`
	Draining bool `json:"draining"`
	// Goroutines lets the overload soak assert zero goroutine leaks from
	// the outside.
	Goroutines int `json:"goroutines"`
}

// stats snapshots every pipeline stage.
func (s *server) stats() serverStats {
	var st serverStats
	st.Limiter = s.limiter.Stats()
	st.Breaker = s.breaker.Stats()
	st.Queue = s.queue.Stats()
	st.Brownout = s.brownout.Stats()
	if s.cfg.BrownoutPin >= 0 {
		st.Brownout.Mode = s.cfg.BrownoutPin
		st.Brownout.Modes = brownoutModes
	}
	st.Retries.BudgetExhausted = s.budgets.Exhausted()
	if s.rec != nil {
		st.Cache.Hits = s.rec.Hits()
		st.Cache.Shards = s.rec.Shards()
	}
	st.Draining = s.draining.Load()
	st.Goroutines = runtime.NumGoroutine()
	return st
}

// handleStatz reports the pipeline counters.
func (s *server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.stats())
}

// shutdown drains the server: stop accepting, let in-flight work finish
// within the budget, then hard-stop whatever remains and flush the cache.
func (s *server) shutdown(budget time.Duration, httpSrv *http.Server) error {
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	var firstErr error
	if httpSrv != nil {
		if err := httpSrv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("http shutdown: %w", err)
		}
	}
	if err := s.queue.Drain(ctx); err != nil {
		// The budget ran out: abort the stragglers at the next timeslice
		// boundary and wait for the queue to empty out for real.
		s.logger.Printf("drain budget exceeded; hard-stopping in-flight work")
		s.hardStop()
		if err := s.queue.Drain(context.Background()); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("queue drain: %w", err)
		}
	}
	s.hardStop() // release the base context either way
	if s.rec != nil {
		if err := s.rec.Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("checkpoint flush: %w", err)
		}
	}
	return firstErr
}
