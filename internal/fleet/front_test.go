package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symbios/internal/leakcheck"
	"symbios/internal/obs"
	"symbios/internal/resilience"
	"symbios/internal/rng"
)

// TestDefaultConfig pins DefaultConfig field for field to the values
// sosfront has always run with (its former flag defaults). The repository
// benchmark's in-process front copies the same values.
func TestDefaultConfig(t *testing.T) {
	want := Config{
		Replicas:       2,
		VNodes:         64,
		DeadlineDef:    5 * time.Second,
		DeadlineMax:    30 * time.Second,
		HedgeQuantile:  0.95,
		HedgeMin:       20 * time.Millisecond,
		HedgeMax:       2 * time.Second,
		HedgeWarmup:    20,
		Health:         HealthConfig{Interval: 500 * time.Millisecond, EjectAfter: 3, ReadmitAfter: 2},
		Breaker:        resilience.BreakerConfig{Window: 16, MinSamples: 4, ErrorRate: 0.5, Cooldown: 2 * time.Second, Probes: 2},
		Budget:         resilience.BudgetConfig{Ratio: 0.1, Cap: 10},
		AttemptTimeout: 10 * time.Second,
		FailoverBase:   10 * time.Millisecond,
		FailoverMax:    250 * time.Millisecond,
		RequireDigest:  true,
		Divergence:     DivergenceConfig{CompareHedges: true, AuditRate: 0.05, Seed: 1, QuarantineAfter: 3, ReadmitAfter: 2},
	}
	if got := DefaultConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("DefaultConfig() =\n%+v\nwant\n%+v", got, want)
	}
}

// fakeBackend is an httptest sosd stand-in whose handler the test can swap
// mid-flight.
type fakeBackend struct {
	ts      *httptest.Server
	handler atomic.Value // http.HandlerFunc
	hits    atomic.Int64
}

// okHandler answers every schedule with a fixed deterministic body.
func okHandler(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "miss")
		io.WriteString(w, body)
	}
}

// newFakeBackend starts a backend answering with h.
func newFakeBackend(t testing.TB, h http.HandlerFunc) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{}
	fb.handler.Store(h)
	fb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fb.hits.Add(1)
		fb.handler.Load().(http.HandlerFunc)(w, r)
	}))
	t.Cleanup(fb.ts.Close)
	return fb
}

func (fb *fakeBackend) set(h http.HandlerFunc) { fb.handler.Store(h) }

// newTestFront builds a Front over the fakes. The health checker is not
// started (backends begin healthy and stay that way) unless a test starts it.
func newTestFront(t testing.TB, fakes []*fakeBackend, mut func(*Config)) *Front {
	t.Helper()
	bases := make([]string, len(fakes))
	for i, fb := range fakes {
		bases[i] = fb.ts.URL
	}
	tr := &http.Transport{}
	cfg := Config{
		Backends:    bases,
		Replicas:    2,
		DeadlineDef: 5 * time.Second,
		DeadlineMax: 10 * time.Second,
		// Unwarmed trackers hedge at HedgeMax; keep it far out so hedging
		// never fires unless a test asks for it.
		HedgeMax: time.Hour,
		Client:   &http.Client{Transport: tr, Timeout: 10 * time.Second},
		Logger:   log.New(io.Discard, "", 0),
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		f.Close()
		tr.CloseIdleConnections()
	})
	return f
}

// scheduleBody builds a well-formed request body for seed.
func scheduleBody(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"mix":"Jsb(6,3,3)","seed":%d}`, seed))
}

// bodyWithPrimary scans seeds until one shards to the wanted primary.
func bodyWithPrimary(t *testing.T, f *Front, primary string) []byte {
	t.Helper()
	for seed := uint64(0); seed < 10_000; seed++ {
		body := scheduleBody(seed)
		if f.candidates(ShardKey(body))[0].base == primary {
			return body
		}
	}
	t.Fatal("no seed shards to the wanted primary")
	return nil
}

// TestShardOfLenientDecode pins what the single body decode yields for
// routing, for the dispatch budget and for hedge classing, so its leniency
// cannot shift: any decode error or a missing mix keys by the raw bytes, while
// the deadline is whatever deadline_ms decoded to — independently of the key —
// and only a literal "mode":"adaptive" classes as adaptive: an absent, unknown
// or mistyped mode is rank and moves neither the key nor the deadline.
func TestShardOfLenientDecode(t *testing.T) {
	raw := func(body string) string { return fmt.Sprintf("raw:%016x", hashString(body)) }
	for _, tc := range []struct {
		name, body string
		key        string
		deadline   time.Duration
		mode       reqClass
	}{
		{"well-formed", `{"mix":"Jsb(6,3,3)","seed":7,"deadline_ms":1500}`, "Jsb(6,3,3)|7", 1500 * time.Millisecond, reqRank},
		{"no deadline", `{"mix":"Jsb(6,3,3)","seed":7}`, "Jsb(6,3,3)|7", 0, reqRank},
		{"unknown fields ignored", `{"mix":"Jpb(10,2,2)","seed":1,"samples":4,"mode":"rank"}`, "Jpb(10,2,2)|1", 0, reqRank},
		{"adaptive", `{"mix":"Jsb(6,3,3)","seed":7,"mode":"adaptive","deadline_ms":1500}`, "Jsb(6,3,3)|7", 1500 * time.Millisecond, reqAdaptive},
		{"unknown mode", `{"mix":"Jsb(6,3,3)","seed":7,"mode":"fastest"}`, "Jsb(6,3,3)|7", 0, reqRank},
		{"mistyped mode still routes", `{"mix":"Jsb(6,3,3)","seed":7,"mode":5,"deadline_ms":250}`, "Jsb(6,3,3)|7", 250 * time.Millisecond, reqRank},
		{"null mode", `{"mix":"Jsb(6,3,3)","seed":7,"mode":null}`, "Jsb(6,3,3)|7", 0, reqRank},
		{"adaptive without a mix", `{"seed":7,"mode":"adaptive"}`, "", 0, reqAdaptive},
		{"mistyped deadline", `{"mix":"Jsb(6,3,3)","seed":7,"deadline_ms":"x"}`, "", 0, reqRank},
		{"mistyped mix keeps deadline", `{"mix":5,"seed":7,"deadline_ms":250}`, "", 250 * time.Millisecond, reqRank},
		{"mistyped seed keeps deadline", `{"mix":"Jsb(6,3,3)","seed":-1,"deadline_ms":250}`, "", 250 * time.Millisecond, reqRank},
		{"mix-less", `{"seed":7,"deadline_ms":900}`, "", 900 * time.Millisecond, reqRank},
		{"negative deadline", `{"mix":"Jsb(6,3,3)","seed":7,"deadline_ms":-5}`, "Jsb(6,3,3)|7", -5 * time.Millisecond, reqRank},
		{"truncated", `{"mix":"Jsb(6,3,3)","deadline_ms":250`, "", 0, reqRank},
		{"garbage", `not json`, "", 0, reqRank},
		{"empty", ``, "", 0, reqRank},
	} {
		want := tc.key
		if want == "" {
			want = raw(tc.body)
		}
		req := shardOf([]byte(tc.body))
		if req.key != want || req.deadline != tc.deadline || req.mode != tc.mode {
			t.Errorf("%s: shardOf = (%q, %s, %s), want (%q, %s, %s)", tc.name,
				req.key, req.deadline, reqClassNames[req.mode], want, tc.deadline, reqClassNames[tc.mode])
		}
		if req.hash != hashString(tc.body) || string(req.body) != tc.body {
			t.Errorf("%s: shardOf hash/body = (%016x, %q), want the raw bytes and their hash", tc.name, req.hash, req.body)
		}
		if got := ShardKey([]byte(tc.body)); got != want {
			t.Errorf("%s: ShardKey = %q, want %q", tc.name, got, want)
		}
	}
}

// TestFrontDispatchSuccess checks the plain path: the primary answers and
// its body plus relay-worthy headers come back unchanged.
func TestFrontDispatchSuccess(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, okHandler(`{"ok":1}`))
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	res, err := f.Dispatch(context.Background(), scheduleBody(1))
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Status != http.StatusOK || string(res.Body) != `{"ok":1}` {
		t.Fatalf("res = %d %q", res.Status, res.Body)
	}
	if res.Header.Get("X-Cache") != "miss" || res.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("relayed headers missing: %v", res.Header)
	}
	if res.Backend == "" {
		t.Fatal("result did not name the serving backend")
	}
	if a.hits.Load()+b.hits.Load() != 1 {
		t.Fatalf("want exactly one backend attempt, got %d+%d", a.hits.Load(), b.hits.Load())
	}
}

// TestFrontFailoverOn5xx checks a 500 from the primary redirects to the next
// replica and the client still gets the deterministic 200.
func TestFrontFailoverOn5xx(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, okHandler(`{"ok":1}`))
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	body := bodyWithPrimary(t, f, a.ts.URL)
	a.set(func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusInternalServerError, "boom")
	})

	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Status != http.StatusOK || res.Backend != b.ts.URL {
		t.Fatalf("res = %d from %s, want 200 from the secondary %s", res.Status, res.Backend, b.ts.URL)
	}
	st := f.Stats()
	for _, bs := range st.Backends {
		if bs.Backend == a.ts.URL && bs.Failures != 1 {
			t.Fatalf("primary failures = %d, want 1", bs.Failures)
		}
	}
}

// TestFrontFailoverOnTransportError checks a dead socket (SIGKILLed backend)
// also fails over.
func TestFrontFailoverOnTransportError(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, okHandler(`{"ok":1}`))
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	body := bodyWithPrimary(t, f, a.ts.URL)
	a.ts.Close() // connection refused from here on

	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Status != http.StatusOK || res.Backend != b.ts.URL {
		t.Fatalf("res = %d from %s, want 200 from %s", res.Status, res.Backend, b.ts.URL)
	}
}

// TestFrontAllReplicasShed checks that when every replica sheds (429), the
// shed response — Retry-After included — is relayed rather than replaced by
// an invented error.
func TestFrontAllReplicasShed(t *testing.T) {
	leakcheck.Check(t)
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		httpError(w, http.StatusTooManyRequests, "limited")
	}
	a := newFakeBackend(t, shed)
	b := newFakeBackend(t, shed)
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	res, err := f.Dispatch(context.Background(), scheduleBody(1))
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", res.Status)
	}
	if got := res.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want the backend's own %q", got, "7")
	}
	if a.hits.Load() != 1 || b.hits.Load() != 1 {
		t.Fatalf("want both replicas tried once, got %d and %d", a.hits.Load(), b.hits.Load())
	}
}

// TestFrontClientErrorIsFinal checks a 400 is a deterministic answer: no
// failover, no retry — the client earned it and every replica would agree.
func TestFrontClientErrorIsFinal(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusBadRequest, "bad mix")
	})
	b := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusBadRequest, "bad mix")
	})
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	res, err := f.Dispatch(context.Background(), []byte(`{"mix":"nope","seed":1}`))
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", res.Status)
	}
	if a.hits.Load()+b.hits.Load() != 1 {
		t.Fatalf("4xx must not fail over: %d+%d attempts", a.hits.Load(), b.hits.Load())
	}
}

// TestFrontBreakerOpenSynthesizes503 checks an open per-backend breaker
// yields a synthesized 503 carrying the cooldown as Retry-After, without
// touching the backend.
func TestFrontBreakerOpenSynthesizes503(t *testing.T) {
	leakcheck.Check(t)
	fail := func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusInternalServerError, "boom")
	}
	a := newFakeBackend(t, fail)
	b := newFakeBackend(t, fail)
	f := newTestFront(t, []*fakeBackend{a, b}, func(cfg *Config) {
		cfg.Breaker = resilience.BreakerConfig{
			Window: 4, MinSamples: 2, ErrorRate: 0.5,
			Cooldown: time.Hour, Probes: 1,
		}
	})

	// Two failing dispatches give each breaker two Failure outcomes.
	for i := 0; i < 2; i++ {
		if _, err := f.Dispatch(context.Background(), scheduleBody(uint64(i))); err == nil {
			t.Fatal("dispatch against all-500 backends succeeded")
		}
	}
	hitsBefore := a.hits.Load() + b.hits.Load()

	res, err := f.Dispatch(context.Background(), scheduleBody(99))
	if err != nil {
		t.Fatalf("Dispatch with open breakers: %v (want synthesized shed)", err)
	}
	if res.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", res.Status)
	}
	if res.Header.Get("Retry-After") != "3600" {
		t.Fatalf("Retry-After = %q, want %q (the breaker's remaining cooldown)",
			res.Header.Get("Retry-After"), "3600")
	}
	if a.hits.Load()+b.hits.Load() != hitsBefore {
		t.Fatal("open breaker still let attempts through to the backends")
	}
}

// TestFrontHedgeWin checks the tail-latency hedge: a stalled primary is
// overtaken by a duplicate to the next replica, the duplicate's answer wins,
// and the stalled attempt is cancelled rather than abandoned.
func TestFrontHedgeWin(t *testing.T) {
	leakcheck.Check(t)
	primaryEntered := make(chan struct{}, 1)
	slow := func(w http.ResponseWriter, r *http.Request) {
		select {
		case primaryEntered <- struct{}{}:
		default:
		}
		// Drain the body so the server arms its background read — without it,
		// a client disconnect never cancels r.Context().
		io.Copy(io.Discard, r.Body)
		// Stall until the hedge winner cancels us.
		<-r.Context().Done()
	}
	a := newFakeBackend(t, okHandler(`{"ok":1}`))
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	f := newTestFront(t, []*fakeBackend{a, b}, func(cfg *Config) {
		cfg.HedgeMin = time.Millisecond
		cfg.HedgeMax = 20 * time.Millisecond // unwarmed tracker hedges at max
	})

	body := bodyWithPrimary(t, f, a.ts.URL)
	a.set(slow)

	start := time.Now()
	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Status != http.StatusOK || res.Backend != b.ts.URL {
		t.Fatalf("res = %d from %s, want hedged 200 from %s", res.Status, res.Backend, b.ts.URL)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("hedged dispatch took %v", el)
	}
	select {
	case <-primaryEntered:
	default:
		t.Fatal("primary was never attempted; the hedge should race it, not replace it")
	}
	st := f.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges=%d hedgeWins=%d, want 1 and 1", st.Hedges, st.HedgeWins)
	}
	// The hedge withdrew the target's single banked token; a hedge attempt
	// must not deposit credit back (speculation never self-funds).
	if tok := f.byBase[b.ts.URL].budget.Tokens(); tok != 0 {
		t.Fatalf("hedge target budget = %v tokens after hedge, want 0 (hedge must not deposit)", tok)
	}
}

// TestFrontDryHedgeBudgetPreservesFailover checks that a hedge timer firing
// against a dry budget does not consume the replica: corrective failover
// after the primary's real failure must still reach it. (Regression: a dry
// hedge withdrawal used to advance past the candidate, so a backend outage
// with drained budgets turned into "all replicas failed" without the healthy
// replica ever being tried.)
func TestFrontDryHedgeBudgetPreservesFailover(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, okHandler(`{"ok":1}`))
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	f := newTestFront(t, []*fakeBackend{a, b}, func(cfg *Config) {
		cfg.HedgeMin = time.Millisecond
		cfg.HedgeMax = 10 * time.Millisecond // unwarmed tracker hedges at max
	})

	body := bodyWithPrimary(t, f, a.ts.URL)
	a.set(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		// Outlive the hedge timer, then fail for real.
		time.Sleep(150 * time.Millisecond)
		w.WriteHeader(http.StatusInternalServerError)
	})
	// Drain the failover target's hedge budget so the timer's withdrawal
	// is refused.
	for f.byBase[b.ts.URL].budget.TryWithdraw() {
	}

	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v (dry hedge budget must not consume the failover replica)", err)
	}
	if res.Status != http.StatusOK || res.Backend != b.ts.URL {
		t.Fatalf("res = %d from %s, want 200 from failover to %s", res.Status, res.Backend, b.ts.URL)
	}
	if st := f.Stats(); st.Hedges != 0 {
		t.Fatalf("hedges = %d, want 0 (budget was dry)", st.Hedges)
	}
}

// TestFrontCoalesce checks identical concurrent bodies collapse onto one
// backend call and every caller gets the leader's answer.
func TestFrontCoalesce(t *testing.T) {
	leakcheck.Check(t)
	inHandler := make(chan struct{})
	release := make(chan struct{})
	a := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
		okHandler(`{"ok":1}`)(w, r)
	})
	b := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
		okHandler(`{"ok":1}`)(w, r)
	})
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	body := scheduleBody(7)
	const followers = 4
	var wg sync.WaitGroup
	errs := make([]error, followers+1)
	bodies := make([]string, followers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := f.Dispatch(context.Background(), body)
		errs[0] = err
		if res != nil {
			bodies[0] = string(res.Body)
		}
	}()
	<-inHandler // leader is inside a backend; followers will coalesce
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := f.Dispatch(context.Background(), body)
			errs[i] = err
			if res != nil {
				bodies[i] = string(res.Body)
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if bodies[i] != `{"ok":1}` {
			t.Fatalf("caller %d body = %q", i, bodies[i])
		}
	}
	if total := a.hits.Load() + b.hits.Load(); total != 1 {
		t.Fatalf("backends saw %d requests, want 1 (singleflight)", total)
	}
	if st := f.Stats(); st.Coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, followers)
	}
}

// TestFrontEjectedBackendSkipped checks dispatch prefers healthy replicas:
// with the primary marked ejected, the secondary serves without the client
// paying for a doomed attempt first.
func TestFrontEjectedBackendSkipped(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, okHandler(`{"ok":1}`))
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	body := bodyWithPrimary(t, f, a.ts.URL)
	eject(f, f.byBase[a.ts.URL])

	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Backend != b.ts.URL {
		t.Fatalf("served by %s, want the healthy secondary %s", res.Backend, b.ts.URL)
	}
	if a.hits.Load() != 0 {
		t.Fatal("ejected primary was attempted before the healthy secondary")
	}

	// With every replica ejected, the front still tries one: degraded beats
	// refusing outright.
	eject(f, f.byBase[b.ts.URL])
	res, err = f.Dispatch(context.Background(), body)
	if err != nil || res.Status != http.StatusOK {
		t.Fatalf("all-ejected dispatch = %v, %v; want the last-resort attempt to serve", res, err)
	}
}

// eject fails b's health probes until its machine ejects it.
func eject(f *Front, b *backend) {
	for b.state().healthy {
		b.feed(backendEvent{kind: probeFailed}, f.cfg.Logger)
	}
}

// TestFrontHandler exercises the HTTP surface end to end: schedule relay,
// operational endpoints, metrics, and the drain gate.
func TestFrontHandler(t *testing.T) {
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	a := newFakeBackend(t, okHandler(`{"ok":1}`))
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	f := newTestFront(t, []*fakeBackend{a, b}, func(cfg *Config) {
		cfg.Registry = reg
	})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		return resp
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	// Schedule relay names the serving backend.
	resp := post(scheduleBody(3))
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(data) != `{"ok":1}` {
		t.Fatalf("schedule = %d %q", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Fleet-Backend") == "" {
		t.Fatal("X-Fleet-Backend missing")
	}

	// Oversized bodies are refused before dispatch.
	resp = post(bytes.Repeat([]byte("x"), maxBodyBytes+1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body = %d, want 400", resp.StatusCode)
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", code)
	}
	code, body := get("/statz")
	if code != http.StatusOK {
		t.Fatalf("statz = %d", code)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statz decode: %v", err)
	}
	if len(st.Backends) != 2 {
		t.Fatalf("statz backends = %d, want 2", len(st.Backends))
	}
	code, body = get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "fleet_backend_requests_total") ||
		!strings.Contains(body, "fleet_healthy_backends 2") {
		t.Fatalf("metrics = %d\n%s", code, body)
	}

	// Draining refuses new work with Retry-After and fails readiness.
	f.Draining()
	resp = post(scheduleBody(4))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining schedule = %d Retry-After=%q, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", code)
	}
}

// TestFrontHandlerAllDead checks the error mapping when no replica answers:
// the client gets a 502, not a hang or a naked 500.
func TestFrontHandlerAllDead(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, okHandler(`{"ok":1}`))
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	f := newTestFront(t, []*fakeBackend{a, b}, nil)
	a.ts.Close()
	b.ts.Close()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(scheduleBody(1)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-dead schedule = %d, want 502", resp.StatusCode)
	}
}

// TestFrontHedgeWinNotDelayedByFailoverBackoff is the backoff regression: a
// hedge winner arriving while a corrective-failover backoff is pending must
// be served immediately. Pre-fix, dispatch slept the backoff inline, so the
// winner already sitting in the results channel waited out the full delay.
func TestFrontHedgeWinNotDelayedByFailoverBackoff(t *testing.T) {
	leakcheck.Check(t)
	slow500 := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(100 * time.Millisecond)
		httpError(w, http.StatusInternalServerError, "boom")
	}
	slowOK := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(150 * time.Millisecond)
		okHandler(`{"ok":1}`)(w, r)
	}
	a := newFakeBackend(t, slowOK)
	b := newFakeBackend(t, slowOK)
	c := newFakeBackend(t, slowOK)
	f := newTestFront(t, []*fakeBackend{a, b, c}, func(cfg *Config) {
		cfg.Replicas = 3
		cfg.HedgeMin = time.Millisecond
		cfg.HedgeMax = 20 * time.Millisecond // unwarmed tracker hedges at max
		cfg.FailoverBase = 2 * time.Second
		cfg.FailoverMax = 2 * time.Second
	})

	// Timeline: primary launches at t=0 and fails at ~100ms; the hedge fires
	// at ~20ms toward the second candidate, which answers at ~170ms. The
	// failure arms a backoff of jitter*2s before the third candidate; pick a
	// key whose deterministic jitter is >= 0.5 so the pending backoff dwarfs
	// the hedge winner's arrival and the regression cannot pass by a lucky
	// tiny delay.
	var body []byte
	for seed := uint64(0); seed < 100_000; seed++ {
		cand := scheduleBody(seed)
		key := ShardKey(cand)
		if f.candidates(key)[0].base != a.ts.URL {
			continue
		}
		if rng.Float01(rng.Hash2(hashString(key), 0, saltFailover)) >= 0.5 {
			body = cand
			break
		}
	}
	if body == nil {
		t.Fatal("no seed with primary a and jitter >= 0.5")
	}
	second := f.candidates(ShardKey(body))[1]
	a.set(slow500)

	start := time.Now()
	res, err := f.Dispatch(context.Background(), body)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Status != http.StatusOK || res.Backend != second.base {
		t.Fatalf("res = %d from %s, want hedged 200 from %s", res.Status, res.Backend, second.base)
	}
	if elapsed > 900*time.Millisecond {
		t.Fatalf("hedge winner served after %v; the pending >=1s failover backoff delayed it", elapsed)
	}
	if st := f.Stats(); st.HedgeWins != 1 {
		t.Fatalf("hedge_wins = %d, want 1", st.HedgeWins)
	}
}

// modeHandler answers like okHandler but advertises a brownout mode.
func modeHandler(body string, mode int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Brownout-Mode", strconv.Itoa(mode))
		io.WriteString(w, body)
	}
}

// TestFrontPrefersLeastDegradedReplica checks brownout-aware placement: a
// backend advertising a degraded mode loses first-choice status to a
// full-service replica, and wins it back once it advertises recovery.
func TestFrontPrefersLeastDegradedReplica(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, modeHandler(`{"ok":1}`, 2))
	b := newFakeBackend(t, modeHandler(`{"ok":1}`, 0))
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	body := bodyWithPrimary(t, f, a.ts.URL)

	// First dispatch goes to the ring primary a and learns its mode.
	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Backend != a.ts.URL {
		t.Fatalf("first dispatch hit %s, want ring primary %s", res.Backend, a.ts.URL)
	}
	if got := res.Header.Get("X-Brownout-Mode"); got != "2" {
		t.Fatalf("relayed X-Brownout-Mode = %q, want \"2\"", got)
	}

	// With a's degradation known, the full-service replica b is preferred
	// even though a is the ring primary for this key.
	if got := f.candidates(ShardKey(body))[0].base; got != b.ts.URL {
		t.Fatalf("degraded primary still first choice: got %s, want %s", got, b.ts.URL)
	}
	res, err = f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch after demotion: %v", err)
	}
	if res.Backend != b.ts.URL {
		t.Fatalf("dispatch after demotion hit %s, want %s", res.Backend, b.ts.URL)
	}

	var modes = map[string]int{}
	for _, bs := range f.Stats().Backends {
		modes[bs.Backend] = bs.Mode
	}
	if modes[a.ts.URL] != 2 || modes[b.ts.URL] != 0 {
		t.Fatalf("Stats modes = %v, want a=2 b=0", modes)
	}

	// a recovers; the front only learns on a's next answer, so shed b once
	// to force a failover onto a.
	a.set(modeHandler(`{"ok":1}`, 0))
	b.set(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	res, err = f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch during b shed: %v", err)
	}
	if res.Backend != a.ts.URL {
		t.Fatalf("failover hit %s, want %s", res.Backend, a.ts.URL)
	}
	b.set(modeHandler(`{"ok":1}`, 0))

	// Both at mode 0 again: ring order is the tiebreak, so a is primary.
	if got := f.candidates(ShardKey(body))[0].base; got != a.ts.URL {
		t.Fatalf("recovered primary not restored: got %s, want %s", got, a.ts.URL)
	}
}
