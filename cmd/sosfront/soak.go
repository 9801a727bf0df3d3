package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/rng"
)

// contextWithTimeout is context.WithTimeout without importing context at
// every call site in main.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// soakRequest is the schedule request body the soak client generates. It
// mirrors sosd's ScheduleRequest wire format without importing the server
// internals — the soak client is an outside observer on purpose.
type soakRequest struct {
	Mix        string `json:"mix"`
	Seed       uint64 `json:"seed"`
	Samples    int    `json:"samples"`
	Mode       string `json:"mode"`
	DeadlineMS int64  `json:"deadline_ms"`
}

// fleetSoak drives paced deterministic load through a sosfront and holds it
// to the fleet contract: every request is answered (200), or shed cleanly
// (429/503/502 carrying Retry-After — a 502 is the front reporting every
// replica for the key failed, which under partitions or quarantine is
// honest shedding, not a lie); EVERY body — success, shed, or error,
// backend-relayed or front-synthesized — carries a digest that verifies; and
// every 200 is byte-identical to what a single-node oracle sosd computes for
// the same request. Any transport error, un-hinted shed, unexpected status,
// missing/wrong digest or byte mismatch is a violation.
//
// The oracle answers are memoized per body: identical requests must produce
// identical bytes, so one oracle evaluation settles every recurrence.
func fleetSoak(stdout io.Writer, logger *log.Logger, frontURL, oracleURL string, dur time.Duration, seed uint64, rate float64) int {
	if rate < 0 {
		logger.Printf("-soak-rate %v must be non-negative", rate)
		return exitUsage
	}
	var pace time.Duration
	if rate > 0 {
		pace = time.Duration(float64(time.Second) / rate)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	post := func(base string, body []byte, clientID string) (*http.Response, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", clientID)
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return resp, data, err
	}

	// oracleAnswer fetches (and memoizes) the single-node truth for body,
	// riding out transient oracle shedding — the oracle's own limiter is not
	// the fleet's fault.
	oracleCache := map[string][]byte{}
	oracleAnswer := func(body []byte) ([]byte, error) {
		if ans, ok := oracleCache[string(body)]; ok {
			return ans, nil
		}
		var lastErr error
		for attempt := 0; attempt < 8; attempt++ {
			resp, data, err := post(oracleURL, body, "oracle-check")
			if err != nil {
				lastErr = err
			} else if resp.StatusCode == http.StatusOK {
				oracleCache[string(body)] = data
				return data, nil
			} else if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
				lastErr = fmt.Errorf("oracle shed %d", resp.StatusCode)
			} else {
				return nil, fmt.Errorf("oracle status %d: %s", resp.StatusCode, data)
			}
			time.Sleep(250 * time.Millisecond)
		}
		return nil, fmt.Errorf("oracle never answered: %w", lastErr)
	}

	mixLabels := []string{"Jsb(4,2,2)", "Jsb(5,2,2)", "Jsb(6,3,3)"}
	r := rng.New(seed)
	deadline := time.Now().Add(dur)

	var sent, ok200, shed429, shed503, shed502, violations int
	violate := func(format string, args ...any) {
		violations++
		logger.Printf("VIOLATION: "+format, args...)
	}

	for i := 0; time.Now().Before(deadline); i++ {
		if pace > 0 && i > 0 {
			time.Sleep(pace)
		}
		// A small seed space on purpose: recurring requests exercise the
		// response caches, the warm-up transfer and singleflight coalescing.
		sr := soakRequest{
			Mix:        mixLabels[int(r.Uint64()%uint64(len(mixLabels)))],
			Seed:       r.Uint64() % 64,
			Samples:    int(2 + r.Uint64()%3),
			Mode:       "rank",
			DeadlineMS: 20_000,
		}
		body, _ := json.Marshal(sr)
		resp, data, err := post(frontURL, body, fmt.Sprintf("fleet-load-%d", i%4))
		sent++
		if err != nil {
			violate("transport error: %v", err)
			continue
		}
		// Every body must verify against its digest stamp — a relayed
		// backend envelope and a front-synthesized shed alike. This is
		// end-to-end proof no hop mangled the bytes, on every status.
		if derr := integrity.Check(resp.Header.Get(integrity.Header), data); derr != nil {
			violate("digest check for %s (status %d, served by %q): %v",
				body, resp.StatusCode, resp.Header.Get("X-Fleet-Backend"), derr)
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			ok200++
			want, oerr := oracleAnswer(body)
			if oerr != nil {
				violate("cannot verify %s: %v", body, oerr)
				continue
			}
			if !bytes.Equal(data, want) {
				violate("byte mismatch for %s (served by %s):\noracle: %s\nfleet:  %s",
					body, resp.Header.Get("X-Fleet-Backend"), want, data)
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusBadGateway:
			if resp.Header.Get("Retry-After") == "" {
				violate("shed %d without Retry-After", resp.StatusCode)
			} else if resp.StatusCode == http.StatusTooManyRequests {
				shed429++
			} else if resp.StatusCode == http.StatusServiceUnavailable {
				shed503++
			} else {
				shed502++
			}
		default:
			violate("unexpected status %d: %s", resp.StatusCode, data)
		}
	}

	logger.Printf("fleet soak: sent=%d 200=%d 429=%d 503=%d 502=%d violations=%d",
		sent, ok200, shed429, shed503, shed502, violations)
	if len(oracleCache) > 0 {
		fmt.Fprintf(stdout, "verified %d distinct responses\n", len(oracleCache))
	}
	switch {
	case violations > 0:
		logger.Printf("fleet soak FAILED: %d violations", violations)
		return exitInternal
	case ok200 == 0:
		logger.Printf("fleet soak FAILED: no request ever succeeded")
		return exitInternal
	}
	fmt.Fprintln(stdout, "fleet soak passed")
	return exitOK
}
