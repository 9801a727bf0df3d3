package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"symbios/internal/checkpoint"
	"symbios/internal/experiments"
	"symbios/internal/faults"
	"symbios/internal/leakcheck"
	"symbios/internal/obs"
	"symbios/internal/resilience"
	"symbios/internal/serve"
)

func TestMain(m *testing.M) { os.Exit(leakcheck.MainRun(m.Run)) }

// testScale is a tiny budget so a request answers in tens of milliseconds.
func testScale() experiments.Scale {
	sc := experiments.ServeScale()
	sc.Slice = 5_000
	sc.SymbiosCycles = 100_000
	sc.WarmupCycles = 20_000
	sc.CalibWarmup = 20_000
	sc.CalibMeasure = 10_000
	return sc
}

type testServerOpts struct {
	chaos *faults.Config
	cfg   func(*serve.Config)
	rec   *checkpoint.Recorder
	reg   *obs.Registry
}

// newTestServer stands up a full pipeline on an httptest listener.
func newTestServer(t *testing.T, opts testServerOpts) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg := serve.Config{
		Scale:       testScale(),
		Chaos:       opts.chaos,
		DeadlineDef: 10 * time.Second,
		DeadlineMax: 30 * time.Second,
		Rate:        10_000, // effectively unlimited unless a test lowers it
		Queue:       16,
		Workers:     4,

		BreakerWindow:   8,
		BreakerMin:      4,
		BreakerRate:     0.5,
		BreakerCooldown: 200 * time.Millisecond,
		BreakerProbes:   2,

		RetryAttempts:    3,
		RetryBase:        time.Millisecond,
		RetryMax:         5 * time.Millisecond,
		RetryBudgetRatio: 0.5,
		RetryBudgetCap:   10,
	}
	if opts.cfg != nil {
		opts.cfg(&cfg)
	}
	srv := serve.New(cfg, opts.rec, opts.reg, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Shutdown(5*time.Second, nil); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// tryPostSchedule sends a request; safe to call from helper goroutines.
func tryPostSchedule(ts *httptest.Server, body string, client string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Client-ID", client)
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// postSchedule sends a request and returns status + body.
func postSchedule(t *testing.T, ts *httptest.Server, body string, client string) (int, []byte) {
	t.Helper()
	status, data, err := tryPostSchedule(ts, body, client)
	if err != nil {
		t.Fatalf("POST /v1/schedule: %v", err)
	}
	return status, data
}

// TestScheduleRankHappyPath checks a clean rank request returns the full
// predictor-ranked candidate list.
func TestScheduleRankHappyPath(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{})
	status, body := postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":7,"samples":4}`, "t")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	// Jsb(4,2,2) has only 3 distinct schedules, so a 4-sample request
	// enumerates all of them.
	if resp.Best == "" || len(resp.Ranking) != 3 {
		t.Fatalf("response %+v: want best and 3 ranked schedules", resp)
	}
	if resp.Ranking[0].Schedule != resp.Best {
		t.Fatalf("best %q is not ranking head %q", resp.Best, resp.Ranking[0].Schedule)
	}
	if resp.Predictor != "Score" || resp.Mode != "rank" {
		t.Fatalf("defaults not applied: %+v", resp)
	}
}

// TestScheduleAdaptiveMode checks the adaptive mode reports a speedup.
func TestScheduleAdaptiveMode(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{})
	status, body := postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":7,"samples":3,"mode":"adaptive"}`, "t")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.WeightedSpeedup <= 0 || resp.Cycles == 0 {
		t.Fatalf("adaptive response %+v: want positive WS and cycles", resp)
	}
}

// TestScheduleDeterministicResponses checks identical requests return
// byte-identical bodies, served from the response cache after the first.
func TestScheduleDeterministicResponses(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	rec := checkpoint.NewRecorder(filepath.Join(dir, "cache.json"), checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}, 1)
	_, ts := newTestServer(t, testServerOpts{rec: rec})
	reqBody := `{"mix":"Jsb(4,2,2)","seed":11,"samples":4}`
	status1, body1 := postSchedule(t, ts, reqBody, "t")
	status2, body2 := postSchedule(t, ts, reqBody, "t")
	if status1 != http.StatusOK || status2 != http.StatusOK {
		t.Fatalf("statuses %d, %d", status1, status2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("responses differ:\n%s\n%s", body1, body2)
	}
	if rec.Hits() == 0 {
		t.Fatal("second request did not hit the cache")
	}
	// A different deadline must not change the fingerprint.
	_, body3 := postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":11,"samples":4,"deadline_ms":9999}`, "t")
	if !bytes.Equal(body1, body3) {
		t.Fatal("deadline change altered the response bytes")
	}
}

// TestScheduleChaosCleanRequestsMatch checks a request that suffers no
// faults returns the same bytes on a chaos server as on a clean one —
// injected failures are retried, never absorbed into results.
func TestScheduleChaosCleanRequestsMatch(t *testing.T) {
	leakcheck.Check(t)
	_, clean := newTestServer(t, testServerOpts{})
	_, chaotic := newTestServer(t, testServerOpts{chaos: &faults.Config{FailRate: 0.05}})
	reqBody := `{"mix":"Jsb(4,2,2)","seed":3,"samples":4}`
	s1, b1 := postSchedule(t, clean, reqBody, "t")
	if s1 != http.StatusOK {
		t.Fatalf("clean server status %d: %s", s1, b1)
	}
	// The chaos server may need the retry path; accept a transient 503 and
	// retake. With FailRate 0.05 and 3 attempts this converges quickly.
	for i := 0; i < 10; i++ {
		s2, b2 := postSchedule(t, chaotic, reqBody, "t")
		if s2 == http.StatusOK {
			if !bytes.Equal(b1, b2) {
				t.Fatalf("chaos response differs from clean response:\n%s\n%s", b1, b2)
			}
			return
		}
		if s2 != http.StatusServiceUnavailable {
			t.Fatalf("chaos server status %d: %s", s2, b2)
		}
	}
	t.Fatal("chaos server never produced a clean result in 10 tries")
}

// TestScheduleRejectsBadRequests checks the decode layer's 400 paths.
func TestScheduleRejectsBadRequests(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{})
	cases := []string{
		``,
		`{`,
		`{"mix":"nope"}`,
		`{"mix":"Jsb(4,2,2)","predictor":"Wrong"}`,
		`{"mix":"Jsb(4,2,2)","samples":999}`,
		`{"mix":"Jsb(4,2,2)","mode":"dance"}`,
		`{"mix":"Jsb(4,2,2)","unknown_field":1}`,
		`{"mix":"Jsb(4,2,2)"} trailing`,
		`{"mix":"Jsb(4,2,2)","fault":{"fail_rate":2}}`,
		`{"mix":"Jsb(4,2,2)","fault":{"fail_rate":0.1}}`, // chaos not enabled
	}
	for _, body := range cases {
		if status, resp := postSchedule(t, ts, body, "t"); status != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, status, resp)
		}
	}
}

// TestScheduleShedsWhenSaturated checks queue saturation returns 503 with
// Retry-After rather than queueing unboundedly, and MaxDepth stays bounded.
func TestScheduleShedsWhenSaturated(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, testServerOpts{cfg: func(c *serve.Config) {
		c.Queue = 1
		c.Workers = 1
	}})
	done := make(chan int, 32)
	for i := 0; i < 16; i++ {
		go func() {
			status, _, _ := tryPostSchedule(ts, `{"mix":"Jsb(6,3,3)","seed":5,"samples":8,"mode":"adaptive"}`, "t")
			done <- status
		}()
	}
	var shed, ok int
	for i := 0; i < 16; i++ {
		switch <-done {
		case http.StatusServiceUnavailable:
			shed++
		case http.StatusOK:
			ok++
		}
	}
	if shed == 0 {
		t.Fatal("16 concurrent requests against a depth-1 queue shed nothing")
	}
	if ok == 0 {
		t.Fatal("no request succeeded under saturation")
	}
	if st := srv.Stats().Queue; st.MaxDepth > st.Cap {
		t.Fatalf("queue depth %d exceeded cap %d", st.MaxDepth, st.Cap)
	}
}

// TestScheduleAdmissionControl checks the rate limiter sheds with 429.
func TestScheduleAdmissionControl(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{cfg: func(c *serve.Config) {
		c.Rate = 0.001
		c.Burst = 2
	}})
	var shed int
	for i := 0; i < 5; i++ {
		status, _ := postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`, "t")
		if status == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed != 3 {
		t.Fatalf("shed %d of 5 at burst 2, want 3", shed)
	}
}

// TestScheduleDeadline checks a request with a tiny deadline gets 504
// without waiting materially past its budget.
func TestScheduleDeadline(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{})
	start := time.Now()
	status, body := postSchedule(t, ts, `{"mix":"Jsb(12,6,6)","seed":1,"samples":16,"mode":"adaptive","deadline_ms":1}`, "t")
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, body)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("1ms-deadline request took %v", elapsed)
	}
}

// TestBreakerOpensAndRecovers drives the breaker through a full
// open -> half-open -> closed cycle with guaranteed-failing requests, once
// with singleton requests and once with envelopes whose every item fails: the
// breaker hears the same verdict whichever endpoint the work arrived on.
func TestBreakerOpensAndRecovers(t *testing.T) {
	leakcheck.Check(t)
	healthy := []string{
		`{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`,
		`{"mix":"Jsb(4,2,2)","seed":2,"samples":2}`,
	}
	// The same requests carrying a fault block that fails every counter read.
	failing := []string{
		`{"mix":"Jsb(4,2,2)","seed":1,"samples":2,"fault":{"fail_rate":1}}`,
		`{"mix":"Jsb(4,2,2)","seed":2,"samples":2,"fault":{"fail_rate":1}}`,
	}
	for _, shape := range []struct {
		name string
		// ask sends one request built from reqs and returns its verdict: the
		// response status, or for an answered envelope the status its items
		// agree on.
		ask func(t *testing.T, ts *httptest.Server, reqs []string) (int, []byte)
	}{
		{"singleton", func(t *testing.T, ts *httptest.Server, reqs []string) (int, []byte) {
			return postSchedule(t, ts, reqs[0], "t")
		}},
		{"batch", func(t *testing.T, ts *httptest.Server, reqs []string) (int, []byte) {
			status, body, env := postBatch(t, ts, batchEnvelope(reqs...))
			if status != http.StatusOK {
				return status, body
			}
			if env.Items[0].Status != env.Items[1].Status {
				t.Fatalf("items disagree: %s", body)
			}
			return env.Items[0].Status, body
		}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			transitions := make(chan string, 16)
			srv, ts := newTestServer(t, testServerOpts{
				chaos: &faults.Config{}, // admits the fault blocks, injects nothing itself
				cfg: func(c *serve.Config) {
					c.BreakerMin = 2
					c.BreakerWindow = 4
					c.BreakerCooldown = 100 * time.Millisecond
					c.BreakerProbes = 1
					c.RetryAttempts = 1
					c.OnBreakerTransition = func(from, to resilience.State) {
						transitions <- from.String() + "->" + to.String()
					}
				},
			})
			// Guaranteed failures: fail_rate 1 and no retries.
			for i := 0; i < 4; i++ {
				if status, body := shape.ask(t, ts, failing); status != http.StatusServiceUnavailable {
					t.Fatalf("request %d: status %d (%s), want 503", i, status, body)
				}
			}
			waitTransition(t, transitions, "closed->open")
			if st := srv.Stats().Breaker.State; st != resilience.Open.String() {
				t.Fatalf("breaker %v after failures, want open", st)
			}
			// While open: fast-fail without touching the backend, even for a
			// request that would succeed.
			if status, _ := shape.ask(t, ts, healthy); status != http.StatusServiceUnavailable {
				t.Fatal("open breaker did not fast-fail")
			}
			// Send healthy work after the cooldown: the probe succeeds.
			time.Sleep(150 * time.Millisecond)
			if status, body := shape.ask(t, ts, healthy); status != http.StatusOK {
				t.Fatalf("probe after cooldown: status %d (%s), want 200", status, body)
			}
			waitTransition(t, transitions, "open->half-open")
			waitTransition(t, transitions, "half-open->closed")
			if st := srv.Stats().Breaker.State; st != resilience.Closed.String() {
				t.Fatalf("breaker %v after successful probe, want closed", st)
			}
		})
	}
}

// waitTransition expects the named transition on the channel.
func waitTransition(t *testing.T, ch chan string, want string) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("transition %q, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("transition %q never happened", want)
	}
}

// TestRetryBudgetExhaustion checks a client that fails hard enough runs out
// of retry credit: later failures return without burning retries.
func TestRetryBudgetExhaustion(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, testServerOpts{
		chaos: &faults.Config{FailRate: 1},
		cfg: func(c *serve.Config) {
			c.RetryAttempts = 3
			c.RetryBudgetRatio = 0.01
			c.RetryBudgetCap = 1
			c.BreakerMin = 1000 // keep the breaker out of this test
		},
	})
	for i := 0; i < 6; i++ {
		if status, _ := postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`, "hammer"); status != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, status)
		}
	}
	if got := srv.Stats().Retries.BudgetExhausted; got == 0 {
		t.Fatal("retry budget never exhausted under sustained failure")
	}
}

// TestDrainUnderLoad checks shutdown under in-flight load completes, the
// in-flight request finishes, and post-drain requests are refused.
func TestDrainUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	rec := checkpoint.NewRecorder(path, checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}, 1)
	srv, ts := newTestServer(t, testServerOpts{rec: rec})
	results := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func() {
			status, _, _ := tryPostSchedule(ts, `{"mix":"Jsb(4,2,2)","seed":77,"samples":4,"mode":"adaptive"}`, "t")
			results <- status
		}()
	}
	// Let the requests reach the queue, then drain.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Shutdown(10*time.Second, nil); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	var ok int
	for i := 0; i < 4; i++ {
		if <-results == http.StatusOK {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no in-flight request survived the drain")
	}
	// New work is refused while drained.
	if status, _ := postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":1}`, "t"); status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request status %d, want 503", status)
	}
	// The checkpoint was flushed and is loadable.
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("loading flushed checkpoint: %v", err)
	}
	if len(snap.Shards) == 0 {
		t.Fatal("drained checkpoint holds no responses")
	}
}

// TestHealthAndReadiness checks the probe endpoints: both answer 200 on a
// serving node, and /readyz turns 503 once the node drains while /healthz
// (liveness) stays 200.
func TestHealthAndReadiness(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, testServerOpts{})
	for _, path := range []string{"/healthz", "/readyz"} {
		if status, body := get(t, ts, path); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, status, body)
		}
	}
	if err := srv.Shutdown(time.Second, nil); err != nil {
		t.Fatal(err)
	}
	if status, _ := get(t, ts, "/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d, want 503", status)
	}
	if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz while draining: status %d, want 200", status)
	}
}

// TestStatz checks the stats endpoint decodes.
func TestStatz(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{})
	postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`, "t")
	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /statz: %v", err)
	}
	if st.Limiter.Admitted == 0 {
		t.Fatalf("stats %+v: want at least one admitted request", st)
	}
}

// TestVersionFlag checks -version prints and exits 0.
func TestVersionFlag(t *testing.T) {
	leakcheck.Check(t)
	var out, errOut bytes.Buffer
	if code := realMain([]string{"-version"}, &out, &errOut); code != exitOK {
		t.Fatalf("exit %d, want 0 (stderr: %s)", code, errOut.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("sosd")) {
		t.Fatalf("version output %q does not name the binary", out.String())
	}
}

// TestUsageErrors checks bad flags exit 2.
func TestUsageErrors(t *testing.T) {
	leakcheck.Check(t)
	for _, args := range [][]string{
		{"-scale", "bogus"},
		{"-chaos", "7"},
		{"-nonsense"},
		{"-soak", "http://127.0.0.1:1"}, // the soak client is a Go test now
	} {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code != exitUsage {
			t.Fatalf("args %v: exit %d, want %d", args, code, exitUsage)
		}
	}
}

// TestHardStopCancelsRequests checks the shutdown escalation path: work
// that outlives the drain budget is cancelled via the base context.
func TestHardStopCancelsRequests(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, testServerOpts{cfg: func(c *serve.Config) {
		c.DeadlineDef = time.Hour // only the hard-stop can end this request
		c.DeadlineMax = time.Hour
	}})
	result := make(chan int, 1)
	go func() {
		// A big adaptive run that would take far longer than the drain budget.
		status, _, _ := tryPostSchedule(ts, `{"mix":"Jsb(12,6,6)","seed":1,"samples":32,"mode":"adaptive"}`, "t")
		result <- status
	}()
	waitForCond(t, func() bool { return srv.Stats().Queue.Submitted >= 1 })
	start := time.Now()
	if err := srv.Shutdown(50*time.Millisecond, nil); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hard-stop shutdown took %v", elapsed)
	}
	// The request's deadline is an hour away, so only the hard stop can
	// have ended it.
	select {
	case status := <-result:
		if status != http.StatusServiceUnavailable && status != http.StatusGatewayTimeout {
			t.Fatalf("hard-stopped request status %d", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hard-stopped request never returned")
	}
}

// waitForCond polls until cond holds.
func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
