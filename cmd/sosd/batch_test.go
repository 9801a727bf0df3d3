package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"symbios/internal/checkpoint"
	"symbios/internal/faults"
	"symbios/internal/integrity"
	"symbios/internal/leakcheck"
	"symbios/internal/obs"
	"symbios/internal/resilience"
)

// postBatch sends a batch envelope and returns status, raw body, and the
// decoded envelope (when the status is 200).
func postBatch(t *testing.T, ts *httptest.Server, body string) (int, []byte, *BatchResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule/batch", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("build batch request: %v", err)
	}
	req.Header.Set("X-Client-ID", "t")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST /v1/schedule/batch: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read batch response: %v", err)
	}
	data := buf.Bytes()
	if cerr := integrity.Check(resp.Header.Get(integrity.Header), data); cerr != nil {
		t.Fatalf("batch envelope digest: %v", cerr)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, data, nil
	}
	var env BatchResponse
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decode batch envelope: %v\n%s", err, data)
	}
	return resp.StatusCode, data, &env
}

// batchEnvelope builds a `{"requests":[...]}` body from item bodies.
func batchEnvelope(items ...string) string {
	return `{"requests":[` + strings.Join(items, ",") + `]}`
}

// verdict is one request's answer as a client sees it, in either shape: the
// singleton response's status, wire bytes, X-Content-Digest and X-Cache, or
// a batch item's status, body + '\n', digest and cache.
type verdict struct {
	status int
	wire   string
	digest string
	cache  string
}

// askSingletons sends each body to /v1/schedule.
func askSingletons(t *testing.T, ts *httptest.Server, bodies []string) []verdict {
	t.Helper()
	out := make([]verdict, len(bodies))
	for i, body := range bodies {
		resp := postRaw(t, ts, body)
		out[i] = verdict{
			status: resp.StatusCode,
			wire:   string(checkDigest(t, "singleton", resp)),
			digest: resp.Header.Get(integrity.Header),
			cache:  resp.Header.Get("X-Cache"),
		}
	}
	return out
}

// askBatch sends the bodies as one envelope, which must be answered 200.
func askBatch(t *testing.T, ts *httptest.Server, bodies []string) []verdict {
	t.Helper()
	status, raw, env := postBatch(t, ts, batchEnvelope(bodies...))
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	if len(env.Items) != len(bodies) {
		t.Fatalf("%d items answered, want %d", len(env.Items), len(bodies))
	}
	out := make([]verdict, len(bodies))
	for i, item := range env.Items {
		out[i] = verdict{status: item.Status, wire: string(item.Body) + "\n", digest: item.Digest, cache: item.Cache}
		if err := integrity.Check(item.Digest, []byte(out[i].wire)); err != nil {
			t.Fatalf("item %d digest: %v", i, err)
		}
	}
	return out
}

// askBatchesOfOne sends each body in an envelope of its own.
func askBatchesOfOne(t *testing.T, ts *httptest.Server, bodies []string) []verdict {
	t.Helper()
	var out []verdict
	for _, body := range bodies {
		out = append(out, askBatch(t, ts, []string{body})...)
	}
	return out
}

// TestSchedulePipelineEquivalence proves a singleton request is a batch of
// one: the same request set sent as singletons, as envelopes of one and as
// one envelope of n yields, per request, the same status, wire bytes, digest
// and cache verdict — first as misses, then again as hits — and leaves the
// same side effects behind: circuit-breaker state, cache-hit count, retry
// stage observations and recorded cache contents. The set runs against a
// server without -chaos (the fault item is a 400) and one with it (the fault
// item is evaluated and fails every attempt — its second failure is the
// fourth breaker verdict and trips it, in singletons and envelopes of one
// alike; the one-envelope shape is a single verdict per pass by design, so
// its breaker is not held to the singletons').
func TestSchedulePipelineEquivalence(t *testing.T) {
	leakcheck.Check(t)
	const primed = `{"mix":"Jsb(4,2,2)","seed":7,"samples":3}`
	const miss = `{"mix":"Jsb(5,2,2)","seed":9,"samples":2,"predictor":"IPC"}`
	bodies := []string{
		primed, // rank hit
		miss,   // rank miss
		`{"mix":"Jsb(4,2,2)","seed":1,"bogus":true}`, // malformed
		`{"mix":"nope","seed":1}`,                    // unknown mix
		`{"mix":"Jsb(4,2,2)","seed":3,"samples":2,"fault":{"fail_rate":1}}`,
	}
	// An envelope rejects adaptive items by contract, touching nothing; a
	// singleton evaluates them, so the item rides only the batched shapes.
	const adaptive = `{"mix":"Jsb(4,2,2)","seed":7,"samples":3,"mode":"adaptive"}`
	shapes := []struct {
		name string
		ask  func(*testing.T, *httptest.Server, []string) []verdict
		set  []string
		// perBody: one HTTP request, hence one breaker verdict, per body.
		perBody bool
	}{
		{"singletons", askSingletons, bodies, true},
		{"batches of one", askBatchesOfOne, append(bodies[:len(bodies):len(bodies)], adaptive), true},
		{"one batch", askBatch, append(bodies[:len(bodies):len(bodies)], adaptive), false},
	}
	type effects struct {
		breaker   resilience.BreakerStats
		cacheHits uint64
		retries   uint64
		cache     string
	}
	for _, flavour := range []struct {
		name        string
		chaos       *faults.Config
		faultStatus int
	}{
		{"no chaos", nil, http.StatusBadRequest},
		{"chaos", &faults.Config{}, http.StatusServiceUnavailable},
	} {
		var wantPasses [2][]verdict
		var wantEffects effects
		for si, shape := range shapes {
			rec := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "equiv.ckpt"),
				checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}, 1)
			srv, ts := newTestServer(t, testServerOpts{chaos: flavour.chaos, rec: rec, reg: obs.NewRegistry()})
			if v := askSingletons(t, ts, []string{primed}); v[0].status != http.StatusOK || v[0].cache != "miss" {
				t.Fatalf("%s/%s: priming answered %+v", flavour.name, shape.name, v[0])
			}
			for pass := range wantPasses {
				got := shape.ask(t, ts, shape.set)
				if len(got) > len(bodies) {
					if a := got[len(bodies)]; a.status != http.StatusBadRequest || !strings.Contains(a.wire, "not batchable") {
						t.Errorf("%s/%s: adaptive item answered %+v, want the per-item 400", flavour.name, shape.name, a)
					}
					got = got[:len(bodies)]
				}
				if si == 0 {
					wantPasses[pass] = got
					continue
				}
				for i := range bodies {
					if got[i] != wantPasses[pass][i] {
						t.Errorf("%s/%s pass %d item %d:\n got %+v\nwant %+v (singleton)", flavour.name, shape.name, pass, i, got[i], wantPasses[pass][i])
					}
				}
			}
			snap, err := json.Marshal(rec.Export())
			if err != nil {
				t.Fatal(err)
			}
			eff := effects{srv.breaker.Stats(), srv.obs.cacheHits.Value(), srv.obs.stageRetry.Count(), string(snap)}
			if !shape.perBody {
				eff.breaker = wantEffects.breaker
			}
			if si == 0 {
				wantEffects = eff
			} else if eff != wantEffects {
				t.Errorf("%s/%s side effects:\n got %+v\nwant %+v (singletons)", flavour.name, shape.name, eff, wantEffects)
			}
			// Cache interop: whatever shape recorded the answer, a singleton
			// ask now replays the same bytes as a hit.
			if v := askSingletons(t, ts, []string{miss}); v[0] != wantPasses[1][1] {
				t.Errorf("%s/%s: singleton after the passes answered %+v, want %+v", flavour.name, shape.name, v[0], wantPasses[1][1])
			}
		}

		// The singleton truth itself: what each request must have answered.
		for pass, want := range [2][]string{{"hit", "miss"}, {"hit", "hit"}} {
			got := wantPasses[pass]
			for i, cache := range want {
				if got[i].status != http.StatusOK || got[i].cache != cache {
					t.Errorf("%s pass %d item %d: %d cache %q, want 200 %q", flavour.name, pass, i, got[i].status, got[i].cache, cache)
				}
			}
			if got[1].wire != wantPasses[0][1].wire {
				t.Errorf("%s: cache hit bytes differ from the miss that recorded them", flavour.name)
			}
			for i, status := range []int{http.StatusBadRequest, http.StatusBadRequest, flavour.faultStatus} {
				if got[2+i].status != status || got[2+i].cache != "" {
					t.Errorf("%s pass %d item %d: %+v, want status %d and no cache verdict", flavour.name, pass, 2+i, got[2+i], status)
				}
			}
		}
	}
}

// TestScheduleBatchWorkerInvariance proves batch results do not depend on
// the queue's worker count: the same envelope answered at -workers 1 and
// -workers 8 is byte-identical (the batched ranking pass uses fixed chunk
// sizes and one queue task, so parallelism never reorders its work).
func TestScheduleBatchWorkerInvariance(t *testing.T) {
	leakcheck.Check(t)
	env := batchEnvelope(
		`{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`,
		`{"mix":"Jsb(4,2,2)","seed":2,"samples":3}`,
		`{"mix":"Jsb(5,2,2)","seed":3,"samples":2}`,
		`{"mix":"Jsb(6,3,3)","seed":4,"samples":2}`,
	)
	var bodies [][]byte
	for _, workers := range []int{1, 8} {
		_, ts := newTestServer(t, testServerOpts{cfg: func(c *serverConfig) { c.Workers = workers }})
		status, raw, _ := postBatch(t, ts, env)
		if status != http.StatusOK {
			t.Fatalf("workers=%d: batch status %d", workers, status)
		}
		bodies = append(bodies, raw)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("batch envelope differs between workers=1 and workers=8:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestScheduleBatchDuplicateItem checks two items sharing a fingerprint are
// resolved per item: the first evaluates, the duplicate 400s, the batch
// succeeds.
func TestScheduleBatchDuplicateItem(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{})
	// Different bytes, same fingerprint (samples defaults to 10).
	status, _, env := postBatch(t, ts, batchEnvelope(
		`{"mix":"Jsb(4,2,2)","seed":5,"samples":2}`,
		`{"mix":"Jsb(4,2,2)","samples":2,"seed":5}`,
	))
	if status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if env.Items[0].Status != http.StatusOK {
		t.Fatalf("first twin status %d, want 200", env.Items[0].Status)
	}
	if env.Items[1].Status != http.StatusBadRequest || !strings.Contains(string(env.Items[1].Body), "duplicate of item 0") {
		t.Fatalf("duplicate item status %d body %s", env.Items[1].Status, env.Items[1].Body)
	}
}

// TestScheduleBatchLimiterChargesPerItem checks a batch of n costs n tokens:
// a batch larger than the burst is shed whole with a Retry-After hint, and
// a batch that fits is admitted.
func TestScheduleBatchLimiterChargesPerItem(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{cfg: func(c *serverConfig) {
		c.Rate = 0.001 // no meaningful refill during the test
		c.Burst = 4
	}})
	var items []string
	for i := 0; i < 8; i++ {
		items = append(items, fmt.Sprintf(`{"mix":"Jsb(4,2,2)","seed":%d,"samples":2}`, i))
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule/batch", bytes.NewReader([]byte(batchEnvelope(items...))))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("8-item batch against burst 4: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	status, _, env := postBatch(t, ts, batchEnvelope(items[:3]...))
	if status != http.StatusOK {
		t.Fatalf("3-item batch status %d, want 200", status)
	}
	for i, item := range env.Items {
		if item.Status != http.StatusOK {
			t.Fatalf("item %d status %d: %s", i, item.Status, item.Body)
		}
	}
}

// TestScheduleBatchBounds checks batch-level validation: empty and oversized
// arrays are whole-batch 400s.
func TestScheduleBatchBounds(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{})
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{"requests":[]}`},
		{"missing", `{}`},
		{"trailing", `{"requests":[{"mix":"Jsb(4,2,2)"}]} extra`},
		{"unknown-field", `{"requests":[],"extra":1}`},
		{"overfull", batchEnvelope(make64PlusItems()...)},
	} {
		status, body, _ := postBatch(t, ts, tc.body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, status, body)
		}
	}
}

func make64PlusItems() []string {
	items := make([]string, MaxBatchItems+1)
	for i := range items {
		items[i] = fmt.Sprintf(`{"mix":"Jsb(4,2,2)","seed":%d}`, i)
	}
	return items
}
