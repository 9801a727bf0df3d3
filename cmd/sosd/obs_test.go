package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"symbios/internal/faults"
	"symbios/internal/leakcheck"
	"symbios/internal/obs"
	"symbios/internal/serve"
)

// get fetches a path from the test server and returns status + body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestObsOnOffByteIdentical is the service side of the no-feedback
// contract: /v1/schedule responses must be byte-identical with metrics
// enabled versus disabled, in both modes, at worker counts 1 and 8.
// Observability that changed even one response byte would silently skew
// every downstream consumer of the scheduler.
func TestObsOnOffByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	requests := []string{
		`{"mix":"Jsb(4,2,2)","seed":7,"samples":4}`,
		`{"mix":"Jsb(4,2,2)","seed":7,"samples":3,"mode":"adaptive"}`,
	}
	for _, workers := range []int{1, 8} {
		setWorkers := func(cfg *serve.Config) { cfg.Workers = workers }
		_, plain := newTestServer(t, testServerOpts{cfg: setWorkers})
		_, metered := newTestServer(t, testServerOpts{cfg: setWorkers, reg: obs.NewRegistry()})
		for _, req := range requests {
			sp, bp := postSchedule(t, plain, req, "t")
			sm, bm := postSchedule(t, metered, req, "t")
			if sp != http.StatusOK || sm != http.StatusOK {
				t.Fatalf("workers=%d req %s: statuses %d (plain) vs %d (metered)", workers, req, sp, sm)
			}
			if !bytes.Equal(bp, bm) {
				t.Errorf("workers=%d req %s: responses differ with metrics on:\n%s\nvs\n%s", workers, req, bp, bm)
			}
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after one rank and one adaptive
// request and checks the exposition is valid Prometheus text covering every
// pipeline stage, the request, pipeline-gauge and simulator families, and
// the SOS phase spans.
func TestMetricsEndpoint(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{reg: obs.NewRegistry()})
	if s, b := postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":7,"samples":4}`, "t"); s != http.StatusOK {
		t.Fatalf("rank request: status %d: %s", s, b)
	}
	// Adaptive mode drives the SOS loop, whose phase spans surface as
	// obs_span_seconds series.
	if s, b := postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":7,"samples":3,"mode":"adaptive"}`, "t"); s != http.StatusOK {
		t.Fatalf("adaptive request: status %d: %s", s, b)
	}

	status, body := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d: %s", status, body)
	}
	families, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for fam, kind := range map[string]string{
		"sosd_stage_seconds":          "histogram",
		"sosd_http_request_seconds":   "histogram",
		"sosd_http_requests_total":    "counter",
		"sosd_limiter_admitted":       "gauge",
		"sosd_limiter_shed":           "gauge",
		"sosd_breaker_state":          "gauge",
		"sosd_breaker_opens":          "gauge",
		"sosd_queue_depth":            "gauge",
		"sosd_queue_rejected":         "gauge",
		"sosd_retry_budget_exhausted": "gauge",
		"sosd_draining":               "gauge",
		"sim_slices_total":            "counter",
		"sim_cycles_total":            "counter",
		"sim_committed_total":         "counter",
		"sim_conflict_cycles_total":   "counter",
		"obs_span_seconds":            "histogram",
	} {
		if got := families[fam]; got != kind {
			t.Errorf("family %s: type %q, want %q", fam, got, kind)
		}
	}
	text := string(body)
	for _, stage := range []string{"limiter", "decode", "cache", "breaker", "queue", "retry"} {
		if !strings.Contains(text, fmt.Sprintf(`sosd_stage_seconds_count{stage=%q}`, stage)) {
			t.Errorf("exposition missing pipeline stage %q", stage)
		}
	}
	for _, span := range []string{"sos/sample", "sos/optimize", "sos/symbios"} {
		if !strings.Contains(text, fmt.Sprintf(`obs_span_seconds_count{span=%q}`, span)) {
			t.Errorf("exposition missing SOS phase span %q", span)
		}
	}
}

// TestMetricsDisabled404 checks a server without a registry answers 404
// on /metrics instead of an empty exposition a scraper would mistake for
// a healthy-but-idle target.
func TestMetricsDisabled404(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{})
	if status, body := get(t, ts, "/metrics"); status != http.StatusNotFound {
		t.Fatalf("GET /metrics without registry: status %d: %s", status, body)
	}
}

// TestMetricsConcurrentScrape hammers a chaos-mode server with schedule
// traffic while concurrently scraping /metrics and /statz, under the
// leak checker: scrapes must stay valid mid-flight and the extra
// goroutines must all drain on shutdown.
func TestMetricsConcurrentScrape(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{
		reg:   obs.NewRegistry(),
		chaos: &faults.Config{FailRate: 0.05},
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				body := fmt.Sprintf(`{"mix":"Jsb(4,2,2)","seed":%d,"samples":3}`, i*10+j)
				if _, _, err := tryPostSchedule(ts, body, fmt.Sprintf("c%d", i)); err != nil {
					errs <- fmt.Errorf("post: %w", err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				resp, err := ts.Client().Get(ts.URL + "/metrics")
				if err != nil {
					errs <- fmt.Errorf("scrape: %w", err)
					return
				}
				_, perr := obs.ParseText(resp.Body)
				resp.Body.Close()
				if perr != nil {
					errs <- fmt.Errorf("mid-flight exposition invalid: %w", perr)
					return
				}
				if resp, err = ts.Client().Get(ts.URL + "/statz"); err != nil {
					errs <- fmt.Errorf("statz: %w", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
