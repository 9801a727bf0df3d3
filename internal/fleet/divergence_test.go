package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/leakcheck"
)

// digestHandler answers with body and a valid integrity envelope.
func digestHandler(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(integrity.Header, integrity.Digest([]byte(body)))
		io.WriteString(w, body)
	}
}

// corruptDigestHandler answers with body but a digest stamped over different
// bytes — what a wire flip between backend and front looks like.
func corruptDigestHandler(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(integrity.Header, integrity.Digest([]byte(body+"x")))
		io.WriteString(w, body)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bodyWithOrder scans seeds until the candidate order matches want exactly.
func bodyWithOrder(t *testing.T, f *Front, want []string) []byte {
	t.Helper()
	for seed := uint64(0); seed < 100_000; seed++ {
		body := scheduleBody(seed)
		cands := f.candidates(ShardKey(body))
		if len(cands) != len(want) {
			continue
		}
		ok := true
		for i := range want {
			if cands[i].base != want[i] {
				ok = false
				break
			}
		}
		if ok {
			return body
		}
	}
	t.Fatal("no seed yields the wanted candidate order")
	return nil
}

// TestFrontCorrupt200NeverReachesClient is the envelope contract: a 200
// whose body fails its digest is treated as a transport failure — failed
// over, counted — and the client receives the next replica's verified body.
func TestFrontCorrupt200NeverReachesClient(t *testing.T) {
	leakcheck.Check(t)
	good := `{"ok":1}`
	a := newFakeBackend(t, corruptDigestHandler(good))
	b := newFakeBackend(t, digestHandler(good))
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	body := bodyWithPrimary(t, f, a.ts.URL)
	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Backend != b.ts.URL {
		t.Fatalf("served by %s, want failover to %s", res.Backend, b.ts.URL)
	}
	if string(res.Body) != good {
		t.Fatalf("body %q, want %q", res.Body, good)
	}
	if err := integrity.Check(res.Header.Get(integrity.Header), res.Body); err != nil {
		t.Fatalf("relayed digest: %v", err)
	}
	st := f.Stats()
	if st.IntegrityFails != 1 {
		t.Fatalf("integrity failures = %d, want 1", st.IntegrityFails)
	}
}

// TestFrontRequireDigestRejectsBareBackends checks the strict mode: with
// RequireDigest a backend that never stamps is a failure, without it the
// same backend serves fine.
func TestFrontRequireDigestRejectsBareBackends(t *testing.T) {
	leakcheck.Check(t)
	a := newFakeBackend(t, okHandler(`{"ok":1}`)) // no digest header
	b := newFakeBackend(t, okHandler(`{"ok":1}`))
	strict := newTestFront(t, []*fakeBackend{a, b}, func(c *Config) { c.RequireDigest = true })
	if _, err := strict.Dispatch(context.Background(), scheduleBody(1)); err == nil {
		t.Fatal("RequireDigest accepted an unstamped reply")
	}
	if st := strict.Stats(); st.IntegrityFails == 0 {
		t.Fatal("strict front counted no integrity failures")
	}

	lenient := newTestFront(t, []*fakeBackend{a, b}, nil)
	if _, err := lenient.Dispatch(context.Background(), scheduleBody(1)); err != nil {
		t.Fatalf("lenient front rejected an unstamped reply: %v", err)
	}
}

// TestFrontOversizedResponseIsFailureNotTruncation checks the bounded-read
// satellite: a body over the cap fails over instead of being silently cut.
func TestFrontOversizedResponseIsFailureNotTruncation(t *testing.T) {
	leakcheck.Check(t)
	huge := strings.Repeat("x", maxResponseBytes+1)
	good := `{"ok":1}`
	a := newFakeBackend(t, okHandler(huge))
	b := newFakeBackend(t, digestHandler(good))
	f := newTestFront(t, []*fakeBackend{a, b}, nil)

	body := bodyWithPrimary(t, f, a.ts.URL)
	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Backend != b.ts.URL || string(res.Body) != good {
		t.Fatalf("backend %s served %d bytes; want failover to %s with %q", res.Backend, len(res.Body), b.ts.URL, good)
	}
}

// TestFrontAttemptTimeoutEscapesSlowLoris checks a stalled backend costs one
// AttemptTimeout before failover, not the whole request deadline.
func TestFrontAttemptTimeoutEscapesSlowLoris(t *testing.T) {
	leakcheck.Check(t)
	good := `{"ok":1}`
	slow := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first (as real sosd does) so the server's
		// background read notices the front hanging up and cancels
		// r.Context(); otherwise the handler pins until the long timer and
		// the test's server-close cleanup waits it out.
		io.ReadAll(r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(30 * time.Second):
		}
	})
	fast := newFakeBackend(t, digestHandler(good))
	f := newTestFront(t, []*fakeBackend{slow, fast}, func(c *Config) {
		c.AttemptTimeout = 100 * time.Millisecond
	})

	body := bodyWithPrimary(t, f, slow.ts.URL)
	start := time.Now()
	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if res.Backend != fast.ts.URL {
		t.Fatalf("served by %s, want %s", res.Backend, fast.ts.URL)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("failover took %s; attempt timeout did not bite", d)
	}
}

// TestFrontAuditQuarantineAndReadmit drives the full state machine: a
// replica serving divergent (but validly stamped) answers is convicted by
// audit + third-replica arbitration within QuarantineAfter observations,
// excluded from placement, surfaced on /v1/quarantine, and readmitted after
// ReadmitAfter clean probes once it recovers.
func TestFrontAuditQuarantineAndReadmit(t *testing.T) {
	leakcheck.Check(t)
	good, bad := `{"ok":1}`, `{"ok":2}`
	a := newFakeBackend(t, digestHandler(good))
	c := newFakeBackend(t, digestHandler(bad)) // the diverging replica
	b := newFakeBackend(t, digestHandler(good))
	f := newTestFront(t, []*fakeBackend{a, c, b}, func(cfg *Config) {
		cfg.Replicas = 3
		cfg.Divergence = DivergenceConfig{AuditRate: 1, Seed: 7, QuarantineAfter: 3, ReadmitAfter: 2}
	})

	// Candidate order [a, c, b]: a serves, the audit re-asks c (divergent),
	// and arbitration asks b, which sides with a — so c takes the blame.
	body := bodyWithOrder(t, f, []string{a.ts.URL, c.ts.URL, b.ts.URL})

	for i := 0; i < 3; i++ {
		res, err := f.Dispatch(context.Background(), body)
		if err != nil {
			t.Fatalf("Dispatch %d: %v", i, err)
		}
		if string(res.Body) != good {
			t.Fatalf("Dispatch %d: divergent body reached the client: %q", i, res.Body)
		}
		// Audits run in the background; wait for this round's verdict so
		// observations arrive one per request, like the acceptance contract.
		want := uint64(i + 1)
		waitUntil(t, "audit verdict", func() bool { return f.Stats().DivergencesTotal >= want })
	}

	waitUntil(t, "quarantine", func() bool {
		return f.byBase[c.ts.URL].state().quarantined
	})
	st := f.Stats()
	if st.AuditMismatches < 3 {
		t.Fatalf("audit mismatches = %d, want >= 3", st.AuditMismatches)
	}
	for _, bs := range st.Backends {
		if bs.Backend == c.ts.URL {
			if !bs.Quarantined || bs.Quarantines != 1 || bs.Divergences < 3 {
				t.Fatalf("diverging backend stats: %+v", bs)
			}
		} else if bs.Quarantined || bs.Divergences != 0 {
			t.Fatalf("innocent backend %s charged: %+v", bs.Backend, bs)
		}
	}

	// Placement exclusion: the quarantined replica is not even a last
	// resort for keys it used to serve.
	for _, cand := range f.candidates(ShardKey(body)) {
		if cand.base == c.ts.URL {
			t.Fatal("quarantined backend still in the candidate list")
		}
	}

	// /v1/quarantine surfaces it.
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/quarantine", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/quarantine status %d", rec.Code)
	}
	var q struct {
		Quarantined int `json:"quarantined"`
		Backends    []struct {
			Backend     string `json:"backend"`
			Quarantined bool   `json:"quarantined"`
		} `json:"backends"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatalf("decode /v1/quarantine: %v", err)
	}
	if q.Quarantined != 1 {
		t.Fatalf("/v1/quarantine reports %d quarantined, want 1", q.Quarantined)
	}

	// Recovery: the replica starts agreeing again; readmit probes ride the
	// audit draws and lift the quarantine after ReadmitAfter clean answers.
	c.set(digestHandler(good))
	waitUntil(t, "readmit", func() bool {
		if _, err := f.Dispatch(context.Background(), body); err != nil {
			t.Fatalf("Dispatch during recovery: %v", err)
		}
		return !f.byBase[c.ts.URL].state().quarantined
	})
	for _, bs := range f.Stats().Backends {
		if bs.Backend == c.ts.URL && bs.QReadmits != 1 {
			t.Fatalf("readmitted backend stats: %+v", bs)
		}
	}
}

// TestFrontHedgeLoserDivergenceCompare checks the free probe: with
// CompareHedges, a hedge loser that completes with a divergent body is
// arbitrated and charged, while the client already got the winner's answer.
func TestFrontHedgeLoserDivergenceCompare(t *testing.T) {
	leakcheck.Check(t)
	good, bad := `{"ok":1}`, `{"ok":2}`
	slowBad := newFakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond) // lose the hedge race, then diverge
		digestHandler(bad)(w, r)
	})
	fast := newFakeBackend(t, digestHandler(good))
	arb := newFakeBackend(t, digestHandler(good))
	f := newTestFront(t, []*fakeBackend{slowBad, fast, arb}, func(cfg *Config) {
		cfg.Replicas = 3
		cfg.HedgeMin = 30 * time.Millisecond
		cfg.HedgeMax = 30 * time.Millisecond // unwarmed tracker hedges here
		cfg.Divergence = DivergenceConfig{CompareHedges: true, QuarantineAfter: 3, ReadmitAfter: 2}
	})

	body := bodyWithPrimary(t, f, slowBad.ts.URL)
	res, err := f.Dispatch(context.Background(), body)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if string(res.Body) != good {
		t.Fatalf("client got %q, want the hedge winner's %q", res.Body, good)
	}
	waitUntil(t, "hedge-loser divergence observation", func() bool {
		for _, bs := range f.Stats().Backends {
			if bs.Backend == slowBad.ts.URL && bs.Divergences >= 1 {
				return true
			}
		}
		return false
	})
	for _, bs := range f.Stats().Backends {
		if bs.Backend != slowBad.ts.URL && bs.Divergences != 0 {
			t.Fatalf("innocent backend %s charged: %+v", bs.Backend, bs)
		}
	}
}

// TestFrontDegradedAnswersAreNotDivergenceEvidence checks the brownout
// exemption: a replica below full service answers differently by design (an
// adaptive request as a rank request, or round-robin), so its bytes convict
// nobody — neither as the audited second of a healthy/degraded pair, nor as
// the arbiter between two full-service replicas that disagree.
func TestFrontDegradedAnswersAreNotDivergenceEvidence(t *testing.T) {
	leakcheck.Check(t)
	full, degraded := `{"mode":"adaptive"}`, `{"mode":"rank"}`
	for _, tc := range []struct {
		name     string
		handlers []http.HandlerFunc // in candidate order: served, audited, arbiter
	}{
		{"pair", []http.HandlerFunc{modeHandler(full, 0), modeHandler(degraded, 1)}},
		{"arbiter", []http.HandlerFunc{modeHandler(full, 0), modeHandler(`{"ok":2}`, 0), modeHandler(degraded, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fakes []*fakeBackend
			var order []string
			for _, h := range tc.handlers {
				fb := newFakeBackend(t, h)
				fakes = append(fakes, fb)
				order = append(order, fb.ts.URL)
			}
			f := newTestFront(t, fakes, func(cfg *Config) {
				cfg.Replicas = len(fakes)
				cfg.Divergence = DivergenceConfig{AuditRate: 1, Seed: 7, QuarantineAfter: 3, ReadmitAfter: 2}
			})
			body := bodyWithOrder(t, f, order)
			for i := 0; i < 3; i++ {
				res, err := f.Dispatch(context.Background(), body)
				if err != nil {
					t.Fatalf("Dispatch %d: %v", i, err)
				}
				if string(res.Body) != full {
					t.Fatalf("Dispatch %d served %q, want the full-service answer", i, res.Body)
				}
				f.wg.Wait() // the audit this dispatch spawned has reached its verdict
			}
			st := f.Stats()
			if st.DivergencesTotal != 0 {
				t.Fatalf("divergence observations = %d, want 0", st.DivergencesTotal)
			}
			if st.Audits != 3 || fakes[len(fakes)-1].hits.Load() != 3 {
				t.Fatalf("audits = %d, last replica asked %d times; want 3 each", st.Audits, fakes[len(fakes)-1].hits.Load())
			}
			for _, bs := range st.Backends {
				if bs.Quarantined || bs.Quarantines != 0 || bs.Divergences != 0 {
					t.Fatalf("backend %s charged: %+v", bs.Backend, bs)
				}
			}
		})
	}
}
