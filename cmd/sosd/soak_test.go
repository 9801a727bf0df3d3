package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"symbios/internal/checkpoint"
	"symbios/internal/faults"
	"symbios/internal/leakcheck"
	"symbios/internal/resilience"
	"symbios/internal/rng"
	"symbios/internal/serve"
)

// TestSoakChaos is the chaos soak: sustained concurrent load against a
// chaos-mode server, with a poisoned request stream, asserting the
// acceptance criteria end to end — overload sheds rather than queues
// unboundedly and every shed carries Retry-After, the breaker opens and
// closes again, no request outlives its deadline by more than scheduling
// slack, responses stay deterministic, shutdown under load drains and
// flushes the response cache, a server restarted from that checkpoint
// serves the canary as a byte-identical cache hit, and no goroutine leaks
// (enforced by TestMain's leakcheck).
func TestSoakChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	leakcheck.Check(t)

	var transMu sync.Mutex
	var transitions []string
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "soak.json")
	// Opened as `sosd -chaos 0.2 -checkpoint` opens it, so the restart below
	// resumes it through the daemon's own code.
	cacheCfg := serve.Config{Scale: testScale(), Chaos: &faults.Config{FailRate: 0.2}}
	rec, _, err := serve.OpenCache(ckptPath, "serve", cacheCfg, 4)
	if err != nil {
		t.Fatalf("opening the soak checkpoint: %v", err)
	}
	soakConfig := func(c *serve.Config) {
		c.Queue = 8
		c.Workers = 2
		c.BreakerMin = 4
		c.BreakerWindow = 8
		c.BreakerRate = 0.3
		c.BreakerCooldown = 100 * time.Millisecond
		c.BreakerProbes = 1
		c.RetryAttempts = 2
		c.DeadlineDef = 2 * time.Second
		c.DeadlineMax = 5 * time.Second
	}
	srv, ts := newTestServer(t, testServerOpts{
		chaos: &faults.Config{FailRate: 0.2},
		rec:   rec,
		cfg: func(c *serve.Config) {
			soakConfig(c)
			c.OnBreakerTransition = func(from, to resilience.State) {
				transMu.Lock()
				transitions = append(transitions, from.String()+"->"+to.String())
				transMu.Unlock()
			}
		},
	})

	const (
		workers       = 8
		perWorker     = 12
		deadlineSlack = 2 * time.Second
	)
	const canaryBody = `{"mix":"Jsb(4,2,2)","seed":42,"samples":3,"deadline_ms":5000}`
	canonical := struct {
		sync.Mutex
		bytes []byte
	}{}
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 100)
			for i := 0; i < perWorker; i++ {
				// A third of the traffic is a fixed canary; the rest is a
				// randomized blend, some of it poisoned to fail every read.
				var body string
				canary := i%3 == 0
				if canary {
					body = canaryBody
				} else {
					req := serve.ScheduleRequest{
						Mix:        "Jsb(5,2,2)",
						Seed:       r.Uint64() % 50,
						Samples:    3,
						DeadlineMS: int64(100 + r.Uint64()%900),
					}
					if r.Float64() < 0.3 {
						req.Fault = &faults.Config{FailRate: 1} // guaranteed failure
					}
					b, _ := json.Marshal(req)
					body = string(b)
				}
				// The clamped deadline: the canary asks for 5s (the server
				// max), load requests ask for at most 1s.
				deadline := 5*time.Second + deadlineSlack
				if !canary {
					deadline = time.Second + deadlineSlack
				}
				start := time.Now()
				status, hdr, resp, err := postFull(ts, body, fmt.Sprintf("w%d", w))
				elapsed := time.Since(start)
				if err != nil {
					errs <- fmt.Errorf("transport: %w", err)
					continue
				}
				if elapsed > deadline {
					errs <- fmt.Errorf("request waited %v, past its deadline budget", elapsed)
				}
				switch status {
				case http.StatusOK:
					if canary {
						canonical.Lock()
						if canonical.bytes == nil {
							canonical.bytes = resp
						} else if !bytes.Equal(canonical.bytes, resp) {
							errs <- fmt.Errorf("determinism violation:\n%s\n%s", canonical.bytes, resp)
						}
						canonical.Unlock()
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Shed or broken: graceful, if it says when to come back.
					if hdr.Get("Retry-After") == "" {
						errs <- fmt.Errorf("shed %d without Retry-After", status)
					}
				case http.StatusGatewayTimeout:
					// Out of time: graceful, and a deadline verdict, not a shed.
				default:
					errs <- fmt.Errorf("unexpected status %d: %s", status, resp)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The queue never grew past its bound.
	if st := srv.Stats().Queue; st.MaxDepth > st.Cap {
		t.Fatalf("queue depth %d exceeded cap %d", st.MaxDepth, st.Cap)
	}
	// The canary succeeded at least once, deterministically.
	if canonical.bytes == nil {
		t.Fatal("canary never succeeded during the soak")
	}
	// With the poison stream stopped, clean traffic must bring the breaker
	// back to closed within a few cooldown rounds.
	// (Fresh seeds each probe: a cached response would short-circuit ahead
	// of the breaker and never report an outcome.)
	breakerClosed := func() bool { return srv.Stats().Breaker.State == resilience.Closed.String() }
	for i := 0; i < 50 && !breakerClosed(); i++ {
		time.Sleep(120 * time.Millisecond)
		body := fmt.Sprintf(`{"mix":"Jsb(4,2,2)","seed":%d,"samples":3,"deadline_ms":5000}`, 10_000+i)
		tryPostSchedule(ts, body, "recover")
	}
	if !breakerClosed() {
		t.Errorf("breaker did not recover after the poison stream stopped (state %v)", srv.Stats().Breaker.State)
	}

	// The poisoned stream opened the breaker at least once, and the
	// recovery above produced a half-open->closed transition.
	transMu.Lock()
	seq := append([]string(nil), transitions...)
	transMu.Unlock()
	var opened, closed bool
	for _, tr := range seq {
		if tr == "closed->open" || tr == "half-open->open" {
			opened = true
		}
		if tr == "half-open->closed" {
			closed = true
		}
	}
	if !opened {
		t.Errorf("breaker never opened under 30%% poison (transitions: %v)", seq)
	}
	if opened && !closed {
		t.Errorf("breaker opened but never closed again (transitions: %v)", seq)
	}

	// Shutdown under residual load drains and checkpoints; the flushed
	// cache must be loadable and hold the canary's response.
	if err := srv.Shutdown(10*time.Second, nil); err != nil {
		t.Fatalf("post-soak shutdown: %v", err)
	}
	snap, err := checkpoint.Load(ckptPath)
	if err != nil {
		t.Fatalf("loading soak checkpoint: %v", err)
	}
	if len(snap.Shards) == 0 {
		t.Fatal("soak checkpoint holds no responses")
	}

	// Restart from the checkpoint: the resumed cache answers the canary as a
	// hit, byte-identical to what the first server computed.
	resumed, ok, err := serve.OpenCache(ckptPath, "serve", cacheCfg, 4)
	if err != nil || !ok {
		t.Fatalf("resuming the soak checkpoint: resumed %v, err %v", ok, err)
	}
	if resumed.Shards() != len(snap.Shards) {
		t.Fatalf("restart resumed %d responses, checkpoint holds %d", resumed.Shards(), len(snap.Shards))
	}
	_, ts2 := newTestServer(t, testServerOpts{chaos: &faults.Config{FailRate: 0.2}, rec: resumed, cfg: soakConfig})
	status, hdr, body, err := postFull(ts2, canaryBody, "canary")
	if err != nil || status != http.StatusOK {
		t.Fatalf("canary after restart: status %d, err %v: %s", status, err, body)
	}
	if hdr.Get("X-Cache") != "hit" {
		t.Errorf("canary after restart X-Cache = %q, want hit", hdr.Get("X-Cache"))
	}
	if !bytes.Equal(body, canonical.bytes) {
		t.Errorf("canary changed across restart:\nbefore: %s\nafter:  %s", canonical.bytes, body)
	}
}
