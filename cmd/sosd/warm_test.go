package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"symbios/internal/checkpoint"
	"symbios/internal/faults"
	"symbios/internal/leakcheck"
	"symbios/internal/resilience"
	"symbios/internal/serve"
)

// postRaw sends a schedule request and returns the full response, headers
// included (postSchedule discards them).
func postRaw(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", "t")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// retryAfterSeconds parses the Retry-After header, failing on absence.
func retryAfterSeconds(t *testing.T, resp *http.Response) int {
	t.Helper()
	v := resp.Header.Get("Retry-After")
	if v == "" {
		t.Fatal("shed response carries no Retry-After")
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", v)
	}
	return n
}

// TestLimiterShedRetryAfterDerived checks a 429's Retry-After reflects the
// limiter's actual refill time instead of a constant: at 0.25 tokens/s an
// empty bucket needs ~4s to hold a token again.
func TestLimiterShedRetryAfterDerived(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{cfg: func(c *serve.Config) {
		c.Rate = 0.25
		c.Burst = 1
	}})
	req := `{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`
	resp := postRaw(t, ts, req) // spends the only token
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d, want 200", resp.StatusCode)
	}
	resp = postRaw(t, ts, req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if secs := retryAfterSeconds(t, resp); secs < 2 || secs > 4 {
		t.Fatalf("Retry-After = %ds, want the ~4s refill time (not the old constant 1)", secs)
	}

	// A shed envelope is told when all the tokens it was refused will be
	// there: 8 items against an empty bucket refilling at 4/s wait ~2s, not
	// the fraction of a second the first token takes.
	_, ts = newTestServer(t, testServerOpts{cfg: func(c *serve.Config) {
		c.Rate = 4
		c.Burst = 8
	}})
	var items []string
	for i := 0; i < 8; i++ {
		items = append(items, fmt.Sprintf(`{"mix":"nope","seed":%d}`, i))
	}
	post := func() *http.Response {
		resp, err := ts.Client().Post(ts.URL+"/v1/schedule/batch", "application/json", strings.NewReader(batchEnvelope(items...)))
		if err != nil {
			t.Fatalf("POST /v1/schedule/batch: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusOK { // spends the whole bucket
		t.Fatalf("first batch = %d, want 200", resp.StatusCode)
	}
	resp = post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second batch = %d, want 429", resp.StatusCode)
	}
	if secs := retryAfterSeconds(t, resp); secs != 2 {
		t.Fatalf("Retry-After = %ds for a shed batch of 8 at 4 tokens/s, want 2", secs)
	}
}

// TestBreakerShedRetryAfterDerived checks an open-breaker 503 carries the
// remaining cooldown as Retry-After.
func TestBreakerShedRetryAfterDerived(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := newTestServer(t, testServerOpts{
		chaos: &faults.Config{FailRate: 1},
		cfg: func(c *serve.Config) {
			c.BreakerMin = 2
			c.BreakerWindow = 4
			c.BreakerCooldown = 30 * time.Second
			c.BreakerProbes = 1
			c.RetryAttempts = 1
		},
	})
	req := `{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`
	for i := 0; i < 4 && srv.Stats().Breaker.State != resilience.Open.String(); i++ {
		resp := postRaw(t, ts, req)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if srv.Stats().Breaker.State != resilience.Open.String() {
		t.Fatal("breaker never opened under guaranteed failures")
	}
	resp := postRaw(t, ts, req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker request = %d, want 503", resp.StatusCode)
	}
	if secs := retryAfterSeconds(t, resp); secs < 25 || secs > 30 {
		t.Fatalf("Retry-After = %ds, want the ~30s remaining cooldown", secs)
	}
}

// TestCacheExport checks the export endpoint serves the recorded cache (and
// 404s without a recorder).
func TestCacheExport(t *testing.T) {
	leakcheck.Check(t)
	meta := checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}
	rec := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "c.ckpt"), meta, 1)
	_, ts := newTestServer(t, testServerOpts{rec: rec})

	postSchedule(t, ts, `{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`, "t")

	resp, err := ts.Client().Get(ts.URL + "/v1/cache/export")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export = %d: %s", resp.StatusCode, data)
	}
	var snap checkpoint.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("export decode: %v", err)
	}
	if snap.Meta != meta || len(snap.Shards) != 1 {
		t.Fatalf("export snapshot = %+v with %d shards, want meta %+v and 1 shard",
			snap.Meta, len(snap.Shards), meta)
	}

	// Without a recorder the endpoint is absent, not an empty snapshot.
	_, tsNone := newTestServer(t, testServerOpts{})
	resp, err = tsNone.Client().Get(tsNone.URL + "/v1/cache/export")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("export without recorder = %d, want 404", resp.StatusCode)
	}
}

// wantReady fails unless /readyz answers 200: the warming gate is down.
func wantReady(t *testing.T, ts *httptest.Server) {
	t.Helper()
	if status, body := get(t, ts, "/readyz"); status != http.StatusOK {
		t.Fatalf("readyz = %d %s, want 200 (warming gate still up?)", status, body)
	}
}

// TestWarmingGatesReadyz checks /readyz holds at 503 while a warm-up is in
// flight, so a fleet front never routes to a half-warmed node, and opens
// once the transfer settles.
func TestWarmingGatesReadyz(t *testing.T) {
	leakcheck.Check(t)
	release := make(chan struct{})
	sibling := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		http.NotFound(w, r)
	}))
	defer sibling.Close()
	rec := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "c.ckpt"),
		checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}, 1)
	srv, ts := newTestServer(t, testServerOpts{rec: rec})
	done := srv.WarmFrom([]string{sibling.URL}, 5*time.Second)
	status, body := get(t, ts, "/readyz")
	close(release)
	<-done
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("warming")) {
		t.Fatalf("readyz while warming = %d %s, want 503 warming", status, body)
	}
	wantReady(t, ts)
}

// TestWarmFromSibling is the warm-up round trip: a cold node adopts a
// sibling's cache and serves its first request as a byte-identical cache
// hit, never re-evaluating what the fleet already computed.
func TestWarmFromSibling(t *testing.T) {
	leakcheck.Check(t)
	meta := checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}
	recA := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "a.ckpt"), meta, 1)
	_, tsA := newTestServer(t, testServerOpts{rec: recA})

	req := `{"mix":"Jsb(4,2,2)","seed":7,"samples":2}`
	respA := postRaw(t, tsA, req)
	wantBody, _ := io.ReadAll(respA.Body)
	respA.Body.Close()
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("source request = %d", respA.StatusCode)
	}

	recB := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "b.ckpt"), meta, 1)
	srvB, tsB := newTestServer(t, testServerOpts{rec: recB})
	<-srvB.WarmFrom([]string{tsA.URL}, 5*time.Second)
	wantReady(t, tsB)
	if got, want := recB.Shards(), recA.Shards(); got != want || got < 1 {
		t.Fatalf("warmed recorder holds %d shards, want the sibling's %d", got, want)
	}

	respB := postRaw(t, tsB, req)
	gotBody, _ := io.ReadAll(respB.Body)
	respB.Body.Close()
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("post-warm request = %d", respB.StatusCode)
	}
	if respB.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-warm X-Cache = %q, want hit (served from the transferred cache)",
			respB.Header.Get("X-Cache"))
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("post-warm body differs from the sibling's:\nsibling: %s\nwarmed:  %s", wantBody, gotBody)
	}
}

// TestWarmMetaMismatchFallsThrough checks a sibling recorded under a
// different run identity is refused and the node starts cold instead of
// adopting a foreign cache.
func TestWarmMetaMismatchFallsThrough(t *testing.T) {
	leakcheck.Check(t)
	recA := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "a.ckpt"),
		checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}, 1)
	_, tsA := newTestServer(t, testServerOpts{rec: recA})
	postSchedule(t, tsA, `{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`, "t")

	recB := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "b.ckpt"),
		checkpoint.Meta{Exp: "sosd-chaos", Scale: "serve", Seed: 1}, 1)
	srvB, tsB := newTestServer(t, testServerOpts{rec: recB})
	<-srvB.WarmFrom([]string{tsA.URL}, 5*time.Second)
	wantReady(t, tsB)
	if recB.Shards() != 0 {
		t.Fatalf("mismatched-meta warm-up adopted %d shards, want 0", recB.Shards())
	}
}

// TestWarmDeadSiblingFallsThrough checks an unreachable sibling degrades to
// a cold start rather than wedging the warming bit forever.
func TestWarmDeadSiblingFallsThrough(t *testing.T) {
	leakcheck.Check(t)
	rec := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "c.ckpt"),
		checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}, 1)
	srv, ts := newTestServer(t, testServerOpts{rec: rec})
	<-srv.WarmFrom([]string{"http://127.0.0.1:1"}, time.Second)
	wantReady(t, ts)
	if rec.Shards() != 0 {
		t.Fatalf("dead-sibling warm-up adopted %d shards", rec.Shards())
	}
}
