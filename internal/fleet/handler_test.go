package fleet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/leakcheck"
)

// mixesBackend answers /v1/mixes with a fixed body and digest header (empty
// digest string means "send none").
func mixesBackend(t *testing.T, body []byte, digest string) *fakeBackend {
	t.Helper()
	return newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/mixes" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if digest != "" {
			w.Header().Set(integrity.Header, digest)
		}
		w.Write(body)
	})
}

func getMixes(t *testing.T, f *Front) *http.Response {
	t.Helper()
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/mixes")
	if err != nil {
		t.Fatalf("GET /v1/mixes: %v", err)
	}
	return resp
}

// TestFrontMixesRelayExactCap checks the boundary of the relay cap: a body of
// exactly maxResponseBytes is relayed whole, digest header included — the
// one-past-the-cap read must flag overflow, not the cap itself.
func TestFrontMixesRelayExactCap(t *testing.T) {
	leakcheck.Check(t)
	body := bytes.Repeat([]byte("m"), maxResponseBytes)
	dig := integrity.Digest(body)
	a := mixesBackend(t, body, dig)
	f := newTestFront(t, []*fakeBackend{a}, nil)

	resp := getMixes(t, f)
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(data) != maxResponseBytes {
		t.Fatalf("exact-cap relay = %d with %d bytes, want 200 with %d", resp.StatusCode, len(data), maxResponseBytes)
	}
	if got := resp.Header.Get(integrity.Header); got != dig {
		t.Fatalf("relayed digest %q, want %q", got, dig)
	}
}

// TestFrontMixesOversizedBodyFails is the truncation regression: a backend
// body one byte over the cap must fail the candidate (here, 502 with no one
// else to try), never be silently truncated and relayed as a 200.
func TestFrontMixesOversizedBodyFails(t *testing.T) {
	leakcheck.Check(t)
	body := bytes.Repeat([]byte("m"), maxResponseBytes+1)
	a := mixesBackend(t, body, integrity.Digest(body))
	f := newTestFront(t, []*fakeBackend{a}, nil)

	resp := getMixes(t, f)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("oversized /v1/mixes relay = %d, want 502", resp.StatusCode)
	}
}

// TestFrontMixesCorruptDigestFails is the integrity regression: the mixes
// relay must hold backends to the same digest check as the schedule path, so
// a corrupt body is a failed candidate, not a relayed answer.
func TestFrontMixesCorruptDigestFails(t *testing.T) {
	leakcheck.Check(t)
	a := mixesBackend(t, []byte(`{"mixes":[]}`+"\n"), integrity.Digest([]byte("other bytes")))
	f := newTestFront(t, []*fakeBackend{a}, nil)

	resp := getMixes(t, f)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("corrupt-digest /v1/mixes relay = %d, want 502", resp.StatusCode)
	}
	if st := f.Stats(); st.IntegrityFails != 1 {
		t.Fatalf("integrity_failures = %d, want 1", st.IntegrityFails)
	}
}

// TestFrontMixesMissingDigest checks the missing-digest policy matches the
// schedule path: tolerated by default (pre-envelope backends), a failure
// under RequireDigest.
func TestFrontMixesMissingDigest(t *testing.T) {
	leakcheck.Check(t)
	body := []byte(`{"mixes":[]}` + "\n")

	lax := newTestFront(t, []*fakeBackend{mixesBackend(t, body, "")}, nil)
	resp := getMixes(t, lax)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("missing digest under lax front = %d, want 200", resp.StatusCode)
	}

	strict := newTestFront(t, []*fakeBackend{mixesBackend(t, body, "")}, func(cfg *Config) {
		cfg.RequireDigest = true
	})
	resp = getMixes(t, strict)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("missing digest under RequireDigest = %d, want 502", resp.StatusCode)
	}
}

// TestFrontMixesStalledBackendFailsOver checks the mixes relay is bounded per
// attempt like a schedule attempt: a backend that accepts and stalls costs
// one AttemptTimeout before the next candidate answers, not the HTTP
// client's whole timeout.
func TestFrontMixesStalledBackendFailsOver(t *testing.T) {
	leakcheck.Check(t)
	body := []byte(`{"mixes":[]}` + "\n")
	a := mixesBackend(t, body, integrity.Digest(body))
	b := mixesBackend(t, body, integrity.Digest(body))
	f := newTestFront(t, []*fakeBackend{a, b}, func(c *Config) {
		c.AttemptTimeout = 100 * time.Millisecond
	})
	first := a
	if f.candidates("mixes")[0].base == b.ts.URL {
		first = b
	}
	first.set(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	})

	start := time.Now()
	resp := getMixes(t, f)
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, body) {
		t.Fatalf("/v1/mixes behind a stalled first candidate = %d %q, want 200 %q", resp.StatusCode, data, body)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("failover took %s; attempt timeout did not bite", d)
	}
	if first.hits.Load() != 1 {
		t.Fatalf("stalled candidate saw %d requests, want 1", first.hits.Load())
	}
}

// TestFrontSynthesizedBodiesCarryDigest checks every body the front writes
// itself — operational endpoints, error bodies, the drain refusal, and the
// breaker-open shed — is digest-stamped and verifies, so a strict client can
// hold the front to the same integrity contract as the backends.
func TestFrontSynthesizedBodiesCarryDigest(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, okHandler(`{"ok":1}`))
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	f := newTestFront(t, []*fakeBackend{a, b}, nil)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	verify := func(resp *http.Response, wantStatus int, where string) {
		t.Helper()
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s = %d, want %d", where, resp.StatusCode, wantStatus)
		}
		if err := integrity.Check(resp.Header.Get(integrity.Header), data); err != nil {
			t.Fatalf("%s digest: %v (body %q)", where, err, data)
		}
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}

	verify(get("/healthz"), http.StatusOK, "healthz")
	verify(get("/readyz"), http.StatusOK, "readyz")
	verify(get("/statz"), http.StatusOK, "statz")
	verify(get("/v1/quarantine"), http.StatusOK, "quarantine")

	// httpError path: an oversized request body earns a synthesized 400.
	resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json",
		bytes.NewReader(bytes.Repeat([]byte("x"), maxBodyBytes+1)))
	if err != nil {
		t.Fatalf("POST oversized: %v", err)
	}
	verify(resp, http.StatusBadRequest, "oversized 400")

	// Drain gate: the refusal is front-synthesized too.
	f.Draining()
	resp, err = ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(scheduleBody(1)))
	if err != nil {
		t.Fatalf("POST while draining: %v", err)
	}
	verify(resp, http.StatusServiceUnavailable, "draining 503")
	verify(get("/readyz"), http.StatusServiceUnavailable, "draining readyz")

	// The breaker-open shed body is synthesized off the HTTP path; check it
	// directly.
	shed := shedResult(errors.New("breaker open"), time.Second)
	if err := integrity.Check(shed.Header.Get(integrity.Header), shed.Body); err != nil {
		t.Fatalf("shedResult digest: %v", err)
	}
}
