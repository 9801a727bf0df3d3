package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"symbios/internal/checkpoint"
	"symbios/internal/leakcheck"
	"symbios/internal/parallel"
	"symbios/internal/serve"
)

// postFull sends a schedule request and returns status, headers and body.
func postFull(ts *httptest.Server, body string, client string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("X-Client-ID", client)
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// adaptiveBody builds an adaptive-mode request with a unique seed so no two
// load requests ever share a cache entry.
func adaptiveBody(seed uint64) string {
	return fmt.Sprintf(`{"mix":"Jsb(4,2,2)","seed":%d,"samples":3,"mode":"adaptive"}`, seed)
}

// TestOverloadBrownoutLadder is the overload soak: it drives a
// controller-run server at well past its capacity and asserts the overload
// contract — every response is a success or a clean shed (sheds carrying
// Retry-After), liveness (/healthz) never fails however degraded the
// service gets, the degradation ladder steps down under sustained sojourn
// pressure, once the load stops it recovers to full service through the
// hysteresis band without flapping, a cached rank canary mixed into the
// traffic answers byte-identically at every rung the ladder passes through,
// and the server still drains cleanly with no goroutine left behind
// (TestMain's leakcheck).
func TestOverloadBrownoutLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("overload soak skipped in -short mode")
	}
	leakcheck.Check(t)

	srv, ts := newTestServer(t, testServerOpts{
		rec: checkpoint.NewRecorder(filepath.Join(t.TempDir(), "overload.ckpt"),
			checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}, 8),
		cfg: func(c *serve.Config) {
			c.Queue = 8
			c.Workers = 1
			c.QueueTarget = 50 * time.Millisecond
			c.QueueInterval = 200 * time.Millisecond
			c.BrownoutPin = -1
			c.BrownoutDown = 25 * time.Millisecond
			c.BrownoutDownHold = 150 * time.Millisecond
			c.BrownoutUpHold = 400 * time.Millisecond
		},
	})

	// The canary is a rank request answered once at full service before the
	// load starts, so the cache holds it before the ladder can reach mode 2
	// (where an uncached request gets the round-robin fallback). Every later
	// 200 for it must be these bytes, whichever rung served it.
	const canary = `{"mix":"Jsb(4,2,2)","seed":42,"samples":3,"mode":"rank"}`
	status, primed := postSchedule(t, ts, canary, "canary")
	if status != http.StatusOK {
		t.Fatalf("priming the canary: status %d: %s", status, primed)
	}
	var canaryMu sync.Mutex
	canaryModes := map[string]int{} // X-Brownout-Mode -> canary 200s served at it
	checkCanary := func(status int, hdr http.Header, body []byte) error {
		if status != http.StatusOK {
			return nil // a shed is held to the shed contract by the caller
		}
		if !bytes.Equal(body, primed) {
			return fmt.Errorf("canary changed at brownout mode %s:\nprimed: %s\ngot:    %s",
				hdr.Get("X-Brownout-Mode"), primed, body)
		}
		canaryMu.Lock()
		canaryModes[hdr.Get("X-Brownout-Mode")]++
		canaryMu.Unlock()
		return nil
	}

	// Offered load: 6 concurrent clients of back-to-back adaptive requests
	// against a single worker — far past 1.3x capacity, sustained — with the
	// canary after every third.
	const (
		clients   = 6
		perClient = 10
	)
	var wg sync.WaitGroup
	errs := make(chan error, 4*clients*perClient)

	// Liveness prober for the whole overload: every /healthz must answer 200
	// promptly, however deep the queue.
	stopProbe := make(chan struct{})
	probeDone := make(chan int)
	go func() {
		client := &http.Client{Timeout: 2 * time.Second}
		defer client.CloseIdleConnections()
		failures := 0
		for {
			select {
			case <-stopProbe:
				probeDone <- failures
				return
			case <-time.After(50 * time.Millisecond):
			}
			resp, err := client.Get(ts.URL + "/healthz")
			if err != nil {
				failures++
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failures++
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				seed := uint64(1000*c + i)
				status, hdr, body, err := postFull(ts, adaptiveBody(seed), fmt.Sprintf("c%d", c))
				if err != nil {
					errs <- fmt.Errorf("transport: %w", err)
					continue
				}
				switch status {
				case http.StatusOK:
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if hdr.Get("Retry-After") == "" {
						errs <- fmt.Errorf("shed %d without Retry-After", status)
					}
				case http.StatusGatewayTimeout:
					// Out of deadline budget: graceful, Retry-After exempt.
				default:
					errs <- fmt.Errorf("non-shed failure %d: %s", status, body)
				}
				if hdr.Get("X-Brownout-Mode") == "" {
					errs <- fmt.Errorf("response (status %d) missing X-Brownout-Mode", status)
				}
				if i%3 == 2 {
					status, hdr, body, err := postFull(ts, canary, fmt.Sprintf("c%d", c))
					if err == nil {
						err = checkCanary(status, hdr, body)
					}
					if err != nil {
						errs <- err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopProbe)
	if n := <-probeDone; n > 0 {
		t.Errorf("%d /healthz probes failed during the overload", n)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if st := srv.Stats().Brownout; st.StepDowns < 1 {
		t.Fatalf("ladder never stepped down under overload: %+v", st)
	}

	// Load has stopped. Recovery needs dequeues (sojourn is only measured
	// at dequeue), so probe gently until the controller climbs back, asking
	// for the canary at each rung on the way up.
	askCanary := func() {
		t.Helper()
		status, hdr, body, err := postFull(ts, canary, "canary")
		if err == nil {
			err = checkCanary(status, hdr, body)
		}
		if err != nil {
			t.Error(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for srv.Stats().Brownout.Mode != 0 && time.Now().Before(deadline) {
		askCanary()
		body := fmt.Sprintf(`{"mix":"Jsb(4,2,2)","seed":%d,"samples":2}`, 900_000+time.Now().UnixNano()%100_000)
		tryPostSchedule(ts, body, "probe")
		time.Sleep(50 * time.Millisecond)
	}
	if m := srv.Stats().Brownout.Mode; m != 0 {
		t.Fatalf("ladder stuck at mode %d after load stopped (stats %+v)", m, srv.Stats().Brownout)
	}
	askCanary()
	t.Logf("canary 200s by brownout mode: %v", canaryModes)
	if len(canaryModes) < 2 {
		t.Errorf("canary answered only at brownout modes %v; want it served across a rung change", canaryModes)
	}

	// Hysteresis: a clean descent and a clean recovery, not a mode that
	// toggled on every observation. Two full ladders' worth of steps is
	// the generous bound; flapping would blow far past it.
	st := srv.Stats().Brownout
	if st.StepDowns > 4 {
		t.Errorf("ladder flapped: %d step-downs (want <= 4): %+v", st.StepDowns, st)
	}
	if st.StepUps != st.StepDowns {
		t.Errorf("recovered to mode 0 but steps unbalanced: %+v", st)
	}
	if err := srv.Shutdown(10*time.Second, nil); err != nil {
		t.Errorf("drain after the overload: %v", err)
	}
}

// TestBrownoutDegradedTailLatency pins one server at full service and one
// at mode 1, drives both with the identical overload, and requires the
// degraded ladder rung to deliver a strictly better p99: the whole point of
// answering adaptive requests with the cheap ranking under pressure.
func TestBrownoutDegradedTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("overload comparison skipped in -short mode")
	}
	leakcheck.Check(t)

	drive := func(pin int) []time.Duration {
		t.Helper()
		_, ts := newTestServer(t, testServerOpts{
			cfg: func(c *serve.Config) {
				c.Queue = 8
				c.Workers = 2
				c.BrownoutPin = pin
			},
		})
		const (
			clients   = 6
			perClient = 8
		)
		var mu sync.Mutex
		var lats []time.Duration
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					seed := uint64(10_000*pin + 1000*c + i)
					start := time.Now()
					status, _, _, err := postFull(ts, adaptiveBody(seed), fmt.Sprintf("p%dc%d", pin, c))
					if err != nil || status != http.StatusOK {
						continue // sheds don't enter the latency sample
					}
					mu.Lock()
					lats = append(lats, time.Since(start))
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		if len(lats) < 10 {
			t.Fatalf("pin %d: only %d successes under overload", pin, len(lats))
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats
	}

	p99 := func(lats []time.Duration) time.Duration {
		idx := int(0.99*float64(len(lats))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		return lats[idx]
	}

	full := drive(0)
	degraded := drive(1)
	if p99(degraded) >= p99(full) {
		t.Fatalf("mode-1 p99 %v not better than mode-0 overload p99 %v", p99(degraded), p99(full))
	}
}

// TestBrownoutPerModeDeterminism checks the ladder's determinism contract:
// within each mode, a request's answer is byte-identical across repeated
// evaluations and across evaluation-worker counts, and a mode-1 degraded
// adaptive answer is byte-identical to a genuine rank answer for the same
// request (the property that makes degraded answers safe to cache).
func TestBrownoutPerModeDeterminism(t *testing.T) {
	leakcheck.Check(t)

	// answer evaluates body on a fresh pinned server (no shared cache) with
	// the given evaluation-worker count, twice: the first answer is the
	// computed one, the second exercises the replay path (cached for modes
	// 0/1, recomputed for the uncached mode-2 round-robin).
	answer := func(pin, workers int, body string) ([]byte, []byte) {
		t.Helper()
		prev := parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(prev)
		_, ts := newTestServer(t, testServerOpts{
			cfg: func(c *serve.Config) { c.BrownoutPin = pin },
		})
		status, first := postSchedule(t, ts, body, "det")
		if status != http.StatusOK {
			t.Fatalf("pin %d workers %d: status %d: %s", pin, workers, status, first)
		}
		status, second := postSchedule(t, ts, body, "det")
		if status != http.StatusOK {
			t.Fatalf("pin %d workers %d replay: status %d: %s", pin, workers, status, second)
		}
		return first, second
	}

	body := `{"mix":"Jsb(4,2,2)","seed":77,"samples":3,"mode":"adaptive"}`
	perMode := map[int][]byte{}
	for _, pin := range []int{0, 1, 2} {
		one, oneAgain := answer(pin, 1, body)
		eight, eightAgain := answer(pin, 8, body)
		if !bytes.Equal(one, oneAgain) || !bytes.Equal(eight, eightAgain) {
			t.Fatalf("pin %d: repeated request not byte-identical", pin)
		}
		if !bytes.Equal(one, eight) {
			t.Fatalf("pin %d: answer differs across workers 1 vs 8:\n%s\n%s", pin, one, eight)
		}
		perMode[pin] = one
	}

	// Modes answer differently (the ladder is real)...
	if bytes.Equal(perMode[0], perMode[1]) || bytes.Equal(perMode[1], perMode[2]) {
		t.Fatalf("ladder modes indistinguishable:\n0: %s\n1: %s\n2: %s",
			perMode[0], perMode[1], perMode[2])
	}
	// ...and the mode-1 degraded answer IS the genuine rank answer for the
	// same request, which is what keys it safely in the shared cache.
	rankBody := `{"mix":"Jsb(4,2,2)","seed":77,"samples":3,"mode":"rank"}`
	_, ts := newTestServer(t, testServerOpts{})
	status, rank := postSchedule(t, ts, rankBody, "det")
	if status != http.StatusOK {
		t.Fatalf("rank request: status %d", status)
	}
	if !bytes.Equal(perMode[1], rank) {
		t.Fatalf("mode-1 degraded answer diverges from the genuine rank answer:\n%s\n%s", perMode[1], rank)
	}
	// Mode 2 marks its fallback explicitly and never claims adaptive work.
	var rr serve.ScheduleResponse
	if err := json.Unmarshal(perMode[2], &rr); err != nil {
		t.Fatalf("mode-2 body: %v", err)
	}
	if rr.Degraded != "round-robin" || rr.Best == "" {
		t.Fatalf("mode-2 answer not a marked round-robin fallback: %+v", rr)
	}
}
