package fleet

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/obs"
	"symbios/internal/resilience"
)

// maxBodyBytes bounds a proxied request body, matching sosd's own request
// cap so the front never accepts what a backend would refuse on size.
const maxBodyBytes = 16 << 10

// maxResponseBytes bounds a proxied response body. A backend answer that
// exceeds it is a failure, never a silent truncation — a truncated relay of
// a deterministic answer would be indistinguishable from corruption.
const maxResponseBytes = 1 << 20

// Deterministic-jitter hash salts (distinct from sosd's 0x50d1..0x50d4 and
// chaosnet's 0xc4a1.. range).
const (
	// saltFailover streams the full-jitter factor between failover attempts.
	saltFailover = 0xfa17
	// saltAudit streams the background divergence-audit draw.
	saltAudit = 0xa0d7
)

// Config wires a Front.
type Config struct {
	// Backends are the sosd base URLs (e.g. "http://127.0.0.1:8723").
	Backends []string
	// Replicas is the R-way placement width: how many distinct ring
	// backends may serve one key (primary plus failover/hedge targets).
	// Values < 1 select 2; values above the backend count are clamped.
	Replicas int
	// VNodes is the ring's virtual-node count per backend (<1 selects 64).
	VNodes int

	// DeadlineDef and DeadlineMax bound the per-request dispatch budget the
	// same way sosd bounds its evaluation budget.
	DeadlineDef time.Duration
	DeadlineMax time.Duration

	// HedgeQuantile, HedgeMin, HedgeMax and HedgeWarmup tune latency
	// hedging: after the tracked quantile of the request class's recent
	// latencies (clamped to [HedgeMin, HedgeMax]; one window each for
	// cached, rank and adaptive answers) a duplicate request is sent to the
	// next replica and the first response wins.
	HedgeQuantile float64
	HedgeMin      time.Duration
	HedgeMax      time.Duration
	HedgeWarmup   int

	// Health tunes the active /readyz prober.
	Health HealthConfig
	// Breaker is the per-backend circuit breaker template (its OnTransition
	// is replaced by one logging which backend transitioned).
	Breaker resilience.BreakerConfig
	// Budget is the per-backend hedge budget: speculative duplicates are
	// capped at Ratio times the backend's own attempt volume. Corrective
	// failover after a real failure is never budgeted — redirecting a dead
	// node's traffic is the front tier's job, not an optional extra.
	Budget resilience.BudgetConfig

	// AttemptTimeout bounds one backend attempt end to end (connect through
	// last body byte), so a slow-loris backend or stalled wire costs at most
	// one timeout before failover instead of pinning the dispatch until the
	// whole request deadline. <= 0 disables the per-attempt bound.
	AttemptTimeout time.Duration

	// FailoverBase and FailoverMax shape the full-jitter backoff between
	// corrective failover attempts (delay before retry k is
	// jitter*min(FailoverMax, FailoverBase<<k)), so a partition or a dead
	// replica does not translate into an instant synchronized hammering of
	// the next one. The jitter factor is deterministic per (shard key,
	// attempt). FailoverBase <= 0 selects 10ms, FailoverMax <= 0 selects
	// 250ms.
	FailoverBase time.Duration
	FailoverMax  time.Duration

	// RequireDigest treats a backend reply without an X-Content-Digest
	// header as a failure. The zero value is off, so a front can sit over
	// backends that predate the envelope; sosfront always turns it on. A
	// digest that is present but wrong is ALWAYS a failure regardless of
	// this setting.
	RequireDigest bool

	// Divergence tunes replica divergence detection and quarantine.
	Divergence DivergenceConfig

	// Client performs backend HTTP calls; nil selects a client with a
	// 30-second overall timeout.
	Client *http.Client
	// Logger receives ejection/failover/warm-up lines; nil discards.
	Logger *log.Logger
	// Registry receives fleet metrics; nil disables them.
	Registry *obs.Registry
}

// DefaultConfig returns the configuration sosfront runs with: every field
// but Backends, Client, Logger and Registry. Zero fields New fills in are
// left to New.
func DefaultConfig() Config {
	return Config{
		Replicas:       2,
		VNodes:         64,
		DeadlineDef:    5 * time.Second,
		DeadlineMax:    30 * time.Second,
		HedgeQuantile:  0.95,
		HedgeMin:       20 * time.Millisecond,
		HedgeMax:       2 * time.Second,
		HedgeWarmup:    20,
		AttemptTimeout: 10 * time.Second,
		FailoverBase:   10 * time.Millisecond,
		FailoverMax:    250 * time.Millisecond,
		RequireDigest:  true,
		Divergence: DivergenceConfig{
			CompareHedges:   true,
			AuditRate:       0.05,
			Seed:            1,
			QuarantineAfter: 3,
			ReadmitAfter:    2,
		},
		Health:  HealthConfig{Interval: 500 * time.Millisecond, EjectAfter: 3, ReadmitAfter: 2},
		Breaker: resilience.BreakerConfig{Window: 16, MinSamples: 4, ErrorRate: 0.5, Cooldown: 2 * time.Second, Probes: 2},
		Budget:  resilience.BudgetConfig{Ratio: 0.1, Cap: 10},
	}
}

// Front is the fleet's shard-and-failover dispatcher.
type Front struct {
	cfg      Config
	ring     *Ring
	backends []*backend
	byBase   map[string]*backend
	flights  *flightGroup
	hedge    *hedgeDelays

	// base parents every dispatch; Close cancels it so in-flight backend
	// calls abort.
	base     context.Context
	hardStop context.CancelFunc
	draining atomic.Bool

	// wg tracks every background goroutine (the probe loop, hedge-loser
	// drains, audits), so Close accounts for all of them.
	wg       sync.WaitGroup
	auditIdx atomic.Uint64

	obsCoalesced *obs.Counter
	obsHedges    *obs.Counter
	obsAudits    *obs.Counter
	obsAuditMiss *obs.Counter

	startOnce sync.Once
	closeOnce sync.Once
}

// New builds a Front over cfg.Backends. Backends start healthy (optimistic)
// and the probe loop demotes the sick ones within EjectAfter rounds of
// Start.
func New(cfg Config) (*Front, error) {
	ring, err := NewRing(cfg.Backends, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	orDefault(&cfg.Replicas, 2)
	cfg.Replicas = min(cfg.Replicas, len(cfg.Backends))
	orDefault(&cfg.DeadlineDef, 5*time.Second)
	orDefault(&cfg.DeadlineMax, 30*time.Second)
	orDefault(&cfg.HedgeMin, 20*time.Millisecond)
	orDefault(&cfg.HedgeMax, 2*time.Second)
	orDefault(&cfg.FailoverBase, 10*time.Millisecond)
	orDefault(&cfg.FailoverMax, 250*time.Millisecond)
	orDefault(&cfg.Health.Interval, 500*time.Millisecond)
	orDefault(&cfg.Health.EjectAfter, 3)
	orDefault(&cfg.Health.ReadmitAfter, 2)
	orDefault(&cfg.Divergence.QuarantineAfter, 3)
	orDefault(&cfg.Divergence.ReadmitAfter, 2)
	cfg.Client = cmp.Or(cfg.Client, &http.Client{Timeout: 30 * time.Second})
	cfg.Logger = cmp.Or(cfg.Logger, log.New(io.Discard, "", 0))
	base, cancel := context.WithCancel(context.Background())
	f := &Front{
		cfg:      cfg,
		ring:     ring,
		byBase:   make(map[string]*backend, len(cfg.Backends)),
		flights:  newFlightGroup(),
		hedge:    newHedgeDelays(cfg.HedgeQuantile, cfg.HedgeMin, cfg.HedgeMax, cfg.HedgeWarmup),
		base:     base,
		hardStop: cancel,
	}
	lim := backendLimits{cfg.Health.EjectAfter, cfg.Health.ReadmitAfter, cfg.Divergence.QuarantineAfter, cfg.Divergence.ReadmitAfter}
	for _, baseURL := range cfg.Backends {
		b := &backend{base: baseURL, st: backendState{lim: lim, healthy: true}, budget: resilience.NewBudget(cfg.Budget)}
		bcfg := cfg.Breaker
		bcfg.OnTransition = func(from, to resilience.State) {
			f.cfg.Logger.Printf("backend %s breaker: %s -> %s", baseURL, from, to)
		}
		b.breaker = resilience.NewBreaker(bcfg)
		f.backends = append(f.backends, b)
		f.byBase[baseURL] = b
	}
	if f.cfg.Health.Probe == nil {
		f.cfg.Health.Probe = f.httpProbe
	}
	f.registerObs(cmp.Or(cfg.Registry, obs.NewRegistry()))
	return f, nil
}

// orDefault sets *v to def when it is not positive.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// registerObs registers the fleet metric families, one series per backend,
// in Config.Registry or a private one: /statz reads these same counters.
func (f *Front) registerObs(reg *obs.Registry) {
	for _, b := range f.backends {
		l := obs.L("backend", b.base)
		b.obsEjections = reg.Counter("fleet_backend_ejections_total",
			"Times the health checker ejected this backend.", l)
		b.obsFailovers = reg.Counter("fleet_failovers_total",
			"Requests failed over away from this backend.", l)
		b.obsHedgeWins = reg.Counter("fleet_hedge_wins_total",
			"Hedged duplicates that beat the primary, by winning backend.", l)
		b.obsRequests = reg.Counter("fleet_backend_requests_total",
			"Schedule attempts sent to this backend.", l)
		b.obsFailures = reg.Counter("fleet_backend_failures_total",
			"Schedule attempts against this backend that failed (transport error or 5xx).", l)
		b.obsIntegrity = reg.Counter("fleet_integrity_failures_total",
			"Backend replies rejected because the body failed its content-digest check.", l)
		b.obsDiverges = reg.Counter("fleet_divergences_total",
			"Divergence observations against this backend (its answer disagreed with the fleet's).", l)
		b.obsQuarantines = reg.Counter("fleet_quarantines_total",
			"Times this backend was quarantined for divergence.", l)
	}
	f.obsCoalesced = reg.Counter("fleet_coalesced_total",
		"Requests answered by another identical in-flight request (singleflight).")
	f.obsHedges = reg.Counter("fleet_hedges_total",
		"Hedged duplicate requests launched.")
	f.obsAudits = reg.Counter("fleet_audits_total",
		"Background divergence audits performed (second replica re-asked).")
	f.obsAuditMiss = reg.Counter("fleet_audit_mismatches_total",
		"Background audits whose second replica disagreed with the served answer.")
	for c, lt := range f.hedge.byClass {
		reg.GaugeFunc("fleet_hedge_delay_seconds",
			"Delay after which a request of this class is hedged (the class's tracked latency quantile, clamped).",
			func() float64 { return lt.Delay().Seconds() }, obs.L("class", reqClassNames[c]))
	}
	reg.GaugeFunc("fleet_healthy_backends", "Backends currently considered healthy.",
		func() float64 { return float64(f.count(func(s backendState) bool { return s.healthy })) })
	reg.GaugeFunc("fleet_quarantined_backends", "Backends currently quarantined for divergence.",
		func() float64 { return float64(f.count(func(s backendState) bool { return s.quarantined })) })
}

// Start launches the health probe loop. Idempotent.
func (f *Front) Start() {
	f.startOnce.Do(func() {
		f.wg.Add(1)
		go f.probeLoop()
	})
}

// Close stops the probe loop, aborts in-flight dispatches, and waits for
// every background goroutine to exit. Idempotent; safe even if Start was
// never called, and a Start after Close does nothing.
func (f *Front) Close() {
	f.closeOnce.Do(func() {
		f.startOnce.Do(func() {})
		f.hardStop()
		f.wg.Wait()
	})
}

// Draining flips the drain gate (refuse new work with 503) on.
func (f *Front) Draining() { f.draining.Store(true) }

// Result is one dispatch outcome: the response to relay to the client.
type Result struct {
	Status  int
	Header  http.Header
	Body    []byte
	Backend string
}

// shardFields is the lenient decode of the two fields the ring shards by,
// the client's deadline for the dispatch budget, and the mode that classes
// the request for hedging. Full validation is the backend's job — a garbage
// body still routes deterministically (by its raw bytes) so the backend's 400
// comes back cached-consistent. Mode is kept raw so that a mistyped one
// cannot fail the decode and move the request's ring key.
type shardFields struct {
	Mix        string          `json:"mix"`
	Seed       uint64          `json:"seed"`
	DeadlineMS int64           `json:"deadline_ms"`
	Mode       json.RawMessage `json:"mode"`
}

// request is Dispatch's one reading of a body, handed to every attempt made
// on its behalf (primary, hedge, audit, arbitration, readmit probe).
type request struct {
	body []byte
	// key is the ring key: "mix|seed" when the body parses, else a hash of
	// the raw bytes.
	key string
	// hash identifies these exact bytes in the hedge predictor's seen set.
	hash uint64
	// mode is reqAdaptive for "mode":"adaptive" and reqRank for anything
	// else, absent and mistyped included (the backend defaults to rank and
	// answers the rest with a 400 no window is fed by).
	mode reqClass
	// deadline is what the client asked for, unclamped; zero when absent. A
	// body that decodes only in part keeps whatever deadline_ms did decode.
	deadline time.Duration
}

// shardOf decodes body once into everything the dispatcher reads from it.
func shardOf(body []byte) *request {
	req := &request{body: body, hash: hashOf(body), mode: reqRank}
	var sf shardFields
	if err := json.Unmarshal(body, &sf); err != nil || sf.Mix == "" {
		req.key = fmt.Sprintf("raw:%016x", req.hash)
	} else {
		req.key = fmt.Sprintf("%s|%d", sf.Mix, sf.Seed)
	}
	if string(sf.Mode) == `"adaptive"` {
		req.mode = reqAdaptive
	}
	req.deadline = time.Duration(sf.DeadlineMS) * time.Millisecond
	return req
}

// ShardKey derives the ring key for a request body.
func ShardKey(body []byte) string {
	return shardOf(body).key
}

// attemptClass partitions attempt outcomes for the dispatch machine.
type attemptClass int

const (
	// classGood is a deterministic answer: 2xx, or a 4xx the client earned.
	classGood attemptClass = iota
	// classShed is overload or unavailability the backend signalled cleanly
	// (429/503, breaker-open): fail over; if every replica sheds, relay the
	// shed (with its Retry-After) instead of inventing an error.
	classShed
	// classFail is a sick backend: transport error, 500/502/504.
	classFail
)

// attemptOut is one backend attempt's outcome.
type attemptOut struct {
	b     *backend
	class attemptClass
	res   *Result
	err   error
	hedge bool
}

// candidates maps the key's replica set to the backends placement may use,
// ordered by placeKey.before from one snapshot of each; ties keep ring
// order. Quarantined backends are left out.
func (f *Front) candidates(shardKey string) []*backend {
	cands := make([]*backend, 0, f.cfg.Replicas)
	var buf [4]placeKey
	keys := buf[:0]
	for _, base := range f.ring.Lookup(shardKey, f.cfg.Replicas) {
		b := f.byBase[base]
		s := b.state()
		k := placeKey{s.verdict(), s.mode}
		if k.verdict == probeOnly {
			continue
		}
		cands, keys = append(cands, b), append(keys, k)
		for j := len(keys) - 1; j > 0 && keys[j].before(keys[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return cands
}

// Dispatch routes one request body: singleflight-coalesced, ring-sharded,
// failing over between replicas and hedging the tail. ctx is the calling
// client's context; the winning execution runs detached from it (on the
// front's base context bounded by the request's clamped deadline), so an
// impatient leader cannot cancel the answer out from under its followers.
func (f *Front) Dispatch(ctx context.Context, body []byte) (*Result, error) {
	req := shardOf(body) // lenient: zero values route and clamp fine
	res, shared, err := f.flights.Do(ctx, string(body), func() (*Result, error) {
		return f.dispatch(req)
	})
	if shared {
		f.obsCoalesced.Inc()
	}
	return res, err
}

// roundTrip is the one exchange with a backend on behalf of client traffic,
// and the one place that decides what a verified backend body is: the call
// is bounded by AttemptTimeout, the body is read one byte past the cap (a
// larger one is an error, never a truncated relay), and it must pass the
// integrity envelope. A non-nil Result is a whole, verified body of whatever
// status; callers decide what the status means.
func (f *Front) roundTrip(ctx context.Context, b *backend, method, path string, body []byte) (*Result, error) {
	// The per-attempt timeout bounds connect through last body byte, so a
	// slow-loris backend costs one AttemptTimeout before failover, not the
	// whole request deadline. ctx (the parent) stays the authority on
	// whether the *request* is over; the timeout only bounds *this try*.
	if f.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.AttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Client-ID", "sosfront")
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Read one byte past the cap: exactly maxResponseBytes+1 bytes read
	// means the backend's body was larger, which is a hard failure — a
	// silently truncated relay of a deterministic answer would be
	// indistinguishable from wire corruption.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if len(data) > maxResponseBytes {
		return nil, fmt.Errorf("response exceeds %d bytes", maxResponseBytes)
	}
	// Integrity envelope: a present-but-wrong digest is always a failure (a
	// corrupt 200 must never reach a client); a missing digest is tolerated
	// unless RequireDigest, so fronts can sit over pre-envelope backends.
	if cerr := integrity.Check(resp.Header.Get(integrity.Header), data); cerr != nil {
		if !errors.Is(cerr, integrity.ErrMissing) || f.cfg.RequireDigest {
			b.obsIntegrity.Inc()
			return nil, cerr
		}
	}
	if v := resp.Header.Get("X-Brownout-Mode"); v != "" {
		if m, perr := strconv.Atoi(v); perr == nil && m >= 0 {
			b.feed(backendEvent{kind: advertised, mode: m}, f.cfg.Logger)
		}
	}
	return &Result{
		Status:  resp.StatusCode,
		Header:  relayHeaders(resp.Header),
		Body:    data,
		Backend: b.base,
	}, nil
}

// attempt sends req's body to one backend and classifies the outcome,
// settling the backend's breaker permit itself so abandoned attempts stay
// accounted. Every verified 2xx — a client's, a hedge's, an audit's, a
// probe's — feeds the hedge-delay window of the class its answer proved.
func (f *Front) attempt(ctx context.Context, b *backend, req *request, hedge bool) attemptOut {
	report, err := b.breaker.Allow()
	if err != nil {
		return attemptOut{b: b, class: classShed, err: err, hedge: hedge,
			res: shedResult(err, b.breaker.RetryAfter())}
	}
	if !hedge {
		// Only non-speculative attempts fund the hedge budget; a hedge
		// depositing for itself would let the effective hedge rate creep
		// above the configured ratio.
		b.budget.Deposit()
	}
	b.obsRequests.Inc()

	t0 := time.Now()
	res, err := f.roundTrip(ctx, b, http.MethodPost, "/v1/schedule", req.body)
	if err != nil {
		// A dead parent context is no verdict on the backend (hedge lost,
		// client gone, deadline), but an attempt timeout with a live parent
		// is the backend being slow — that is exactly what the breaker
		// should hear about.
		if ctx.Err() != nil {
			report(resilience.Skipped)
		} else {
			report(resilience.Failure)
			b.obsFailures.Inc()
		}
		return attemptOut{b: b, class: classFail, err: fmt.Errorf("backend %s: %w", b.base, err), hedge: hedge}
	}
	dur := time.Since(t0)
	switch {
	case res.Status == http.StatusTooManyRequests || res.Status == http.StatusServiceUnavailable:
		// Clean shedding: the backend is up and telling us to go elsewhere.
		report(resilience.Skipped)
		if res.Header.Get("Retry-After") == "" {
			res.Header.Set("Retry-After", "1")
		}
		return attemptOut{b: b, class: classShed, res: res, hedge: hedge}
	case res.Status >= 500:
		report(resilience.Failure)
		b.obsFailures.Inc()
		return attemptOut{b: b, class: classFail, res: res, hedge: hedge,
			err: fmt.Errorf("backend %s: %d %s", b.base, res.Status, http.StatusText(res.Status))}
	default:
		// 2xx and client-errors alike are deterministic answers.
		report(resilience.Success)
		if res.Status < 300 {
			f.hedge.observe(req, res.Header, dur)
		}
		return attemptOut{b: b, class: classGood, res: res, hedge: hedge}
	}
}

// relayHeaders picks the response headers worth relaying to the client.
func relayHeaders(h http.Header) http.Header {
	out := http.Header{}
	for _, k := range []string{"Content-Type", "X-Cache", "Retry-After", "X-Brownout-Mode", integrity.Header} {
		if v := h.Get(k); v != "" {
			out.Set(k, v)
		}
	}
	return out
}

// shedResult synthesizes a 503 for a refusal that never reached a backend
// (breaker open), carrying the breaker's cooldown as Retry-After. Like every
// body the front writes itself, it is digest-stamped, so a strict verifier
// can tell "the front spoke" from "a backend's envelope was stripped".
func shedResult(err error, retryAfter time.Duration) *Result {
	body := errorBody(err.Error())
	h := http.Header{}
	h.Set("Content-Type", "application/json")
	h.Set("Retry-After", retryAfterValue(retryAfter))
	h.Set(integrity.Header, integrity.Digest(body))
	return &Result{Status: http.StatusServiceUnavailable, Header: h, Body: body}
}

// retryAfterValue renders a duration as a Retry-After header value: whole
// seconds, rounded up, at least 1.
func retryAfterValue(d time.Duration) string {
	return strconv.Itoa(max(1, int(math.Ceil(d.Seconds()))))
}

// BackendStats is one backend's /statz entry.
type BackendStats struct {
	Backend     string                  `json:"backend"`
	Healthy     bool                    `json:"healthy"`
	Mode        int                     `json:"mode"`
	Ejections   uint64                  `json:"ejections"`
	Readmits    uint64                  `json:"readmits"`
	Requests    uint64                  `json:"requests"`
	Failures    uint64                  `json:"failures"`
	Quarantined bool                    `json:"quarantined"`
	Divergences uint64                  `json:"divergences"`
	Quarantines uint64                  `json:"quarantines"`
	QReadmits   uint64                  `json:"quarantine_readmits"`
	Breaker     resilience.BreakerStats `json:"breaker"`
}

// Stats is the front tier's /statz body.
type Stats struct {
	Backends         []BackendStats `json:"backends"`
	Coalesced        uint64         `json:"coalesced"`
	Hedges           uint64         `json:"hedges"`
	HedgeWins        uint64         `json:"hedge_wins"`
	IntegrityFails   uint64         `json:"integrity_failures"`
	Audits           uint64         `json:"audits"`
	AuditMismatches  uint64         `json:"audit_mismatches"`
	DivergencesTotal uint64         `json:"divergences"`
	Draining         bool           `json:"draining"`
	// HedgeDelayMS is the delay currently armed for each request class
	// ("cached", "rank", "adaptive").
	HedgeDelayMS map[string]float64 `json:"hedge_delay_ms"`
}

// Stats snapshots the fleet state.
func (f *Front) Stats() Stats {
	st := Stats{
		Coalesced:       f.obsCoalesced.Value(),
		Hedges:          f.obsHedges.Value(),
		Audits:          f.obsAudits.Value(),
		AuditMismatches: f.obsAuditMiss.Value(),
		Draining:        f.draining.Load(),
		HedgeDelayMS:    make(map[string]float64, numReqClasses),
	}
	for c, lt := range f.hedge.byClass {
		st.HedgeDelayMS[reqClassNames[c]] = float64(lt.Delay()) / float64(time.Millisecond)
	}
	for _, b := range f.backends {
		s := b.state()
		st.Backends = append(st.Backends, BackendStats{
			Backend:     b.base,
			Healthy:     s.healthy,
			Mode:        s.mode,
			Ejections:   s.ejections,
			Readmits:    s.readmits,
			Requests:    b.obsRequests.Value(),
			Failures:    b.obsFailures.Value(),
			Quarantined: s.quarantined,
			Divergences: s.divergesSeen,
			Quarantines: s.quarantines,
			QReadmits:   s.qReadmits,
			Breaker:     b.breaker.Stats(),
		})
		st.HedgeWins += b.obsHedgeWins.Value()
		st.IntegrityFails += b.obsIntegrity.Value()
		st.DivergencesTotal += b.obsDiverges.Value()
	}
	return st
}

// count counts the backends whose state is holds for.
func (f *Front) count(is func(backendState) bool) int {
	n := 0
	for _, b := range f.backends {
		if is(b.state()) {
			n++
		}
	}
	return n
}
