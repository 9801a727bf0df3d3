package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"symbios/internal/checkpoint"
	"symbios/internal/integrity"
	"symbios/internal/leakcheck"
	"symbios/internal/serve"
)

// checkDigest reads a response body and verifies it against the
// X-Content-Digest stamp, returning the bytes read.
func checkDigest(t *testing.T, what string, resp *http.Response) []byte {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s: reading body: %v", what, err)
	}
	if err := integrity.Check(resp.Header.Get(integrity.Header), body); err != nil {
		t.Fatalf("%s: digest check: %v (header %q, %d body bytes)",
			what, err, resp.Header.Get(integrity.Header), len(body))
	}
	return body
}

// TestResponsesCarryVerifiableDigest checks every JSON write path — schedule
// answers, error bodies, stats, and the cache export — stamps a digest that
// verifies against the exact bytes a client reads.
func TestResponsesCarryVerifiableDigest(t *testing.T) {
	leakcheck.Check(t)
	rec := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "c.ckpt"),
		checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}, 1)
	_, ts := newTestServer(t, testServerOpts{rec: rec})

	resp := postRaw(t, ts, `{"mix":"Jsb(4,2,2)","seed":7,"samples":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule = %d", resp.StatusCode)
	}
	checkDigest(t, "schedule 200", resp)

	// A cache hit serves recorded bytes through the same stamped path.
	resp = postRaw(t, ts, `{"mix":"Jsb(4,2,2)","seed":7,"samples":2}`)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second ask X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	checkDigest(t, "schedule cache hit", resp)

	resp = postRaw(t, ts, `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad request = %d", resp.StatusCode)
	}
	checkDigest(t, "error 400", resp)

	for _, path := range []string{"/statz", "/v1/mixes", "/v1/cache/export"} {
		r, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, r.StatusCode)
		}
		checkDigest(t, path, r)
	}
}

// TestDivergenceInjection checks the -divergence fault: the perturbed answer
// is parseable, deterministic across asks (cache hits included), carries a
// *valid* digest — it must model an honestly-wrong replica, not a broken
// wire — and never leaks into the cache export siblings warm from.
func TestDivergenceInjection(t *testing.T) {
	leakcheck.Check(t)
	rec := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "c.ckpt"),
		checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}, 1)
	_, ts := newTestServer(t, testServerOpts{rec: rec, cfg: func(c *serve.Config) {
		c.Divergence = 1
	}})

	req := `{"mix":"Jsb(4,2,2)","seed":7,"samples":2}`
	resp := postRaw(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule = %d", resp.StatusCode)
	}
	first := checkDigest(t, "divergent answer", resp)
	if !bytes.Contains(first, []byte(`"divergent":true`)) {
		t.Fatalf("divergence=1 answer lacks the perturbation: %s", first)
	}
	var parsed map[string]any
	if err := json.Unmarshal(first, &parsed); err != nil {
		t.Fatalf("perturbed answer is not valid JSON: %v\n%s", err, first)
	}

	resp = postRaw(t, ts, req)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second ask X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	second := checkDigest(t, "divergent cache hit", resp)
	if !bytes.Equal(first, second) {
		t.Fatalf("divergent answers differ across asks:\nfirst:  %s\nsecond: %s", first, second)
	}

	// The cache records honest bytes only, so exports cannot spread the fault.
	r, err := ts.Client().Get(ts.URL + "/v1/cache/export")
	if err != nil {
		t.Fatal(err)
	}
	export := checkDigest(t, "export", r)
	if bytes.Contains(export, []byte("divergent")) {
		t.Fatalf("perturbation leaked into the cache export: %s", export)
	}
}

// TestDivergenceWindowCloses checks a replica past its -divergence-for
// window answers honestly again.
func TestDivergenceWindowCloses(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, testServerOpts{cfg: func(c *serve.Config) {
		c.Divergence = 1
		c.DivergenceFor = time.Nanosecond // closed before the first request arrives
	}})

	resp := postRaw(t, ts, `{"mix":"Jsb(4,2,2)","seed":7,"samples":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule = %d", resp.StatusCode)
	}
	body := checkDigest(t, "post-window answer", resp)
	if bytes.Contains(body, []byte("divergent")) {
		t.Fatalf("answer still perturbed after the divergence window closed: %s", body)
	}
}

// TestWarmCorruptExportRefused checks the warm-up digest gate: a sibling
// whose export bytes do not match their digest stamp contributes nothing,
// and the warm-up falls through to the next (honest) sibling.
func TestWarmCorruptExportRefused(t *testing.T) {
	leakcheck.Check(t)
	meta := checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}

	// The corrupt sibling serves a plausible snapshot whose digest was
	// stamped before a byte flipped — exactly what a flaky wire produces.
	snap, err := json.Marshal(checkpoint.Snapshot{
		Meta:   meta,
		Shards: map[string]json.RawMessage{"k": json.RawMessage(`{"x":1}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap = append(snap, '\n')
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(integrity.Header, integrity.Digest(snap))
		mangled := append([]byte{}, snap...)
		mangled[len(mangled)/2] ^= 0x10
		w.Write(mangled)
	}))
	defer corrupt.Close()

	recA := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "a.ckpt"), meta, 1)
	_, tsA := newTestServer(t, testServerOpts{rec: recA})
	postSchedule(t, tsA, `{"mix":"Jsb(4,2,2)","seed":1,"samples":2}`, "t")

	recB := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "b.ckpt"), meta, 1)
	srvB, tsB := newTestServer(t, testServerOpts{rec: recB})
	<-srvB.WarmFrom([]string{corrupt.URL, tsA.URL}, 5*time.Second)
	wantReady(t, tsB)
	if got, want := recB.Shards(), recA.Shards(); got != want || got < 1 {
		t.Fatalf("warmed %d shards, want the honest sibling's %d (corrupt one refused)", got, want)
	}

	// A digest-less export is refused outright: warm-up transfers are held
	// to the strict envelope even where request relays tolerate absence.
	bare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(snap)
	}))
	defer bare.Close()
	recC := checkpoint.NewRecorder(filepath.Join(t.TempDir(), "c.ckpt"), meta, 1)
	srvC, _ := newTestServer(t, testServerOpts{rec: recC})
	<-srvC.WarmFrom([]string{bare.URL}, 5*time.Second)
	if recC.Shards() != 0 {
		t.Fatalf("digest-less export adopted %d shards, want 0", recC.Shards())
	}
}
