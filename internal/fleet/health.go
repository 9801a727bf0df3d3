package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// HealthConfig tunes the active health checker.
type HealthConfig struct {
	// Interval is the probe cadence. Values <= 0 select 500ms.
	Interval time.Duration
	// Timeout bounds one probe. Values <= 0 select Interval (and never more
	// than it, so one slow backend cannot stall the round for the others —
	// probes run concurrently anyway, but a round never overlaps the next).
	Timeout time.Duration
	// EjectAfter is how many consecutive probe failures eject a backend.
	// Values < 1 select 3.
	EjectAfter int
	// ReadmitAfter is how many consecutive probe successes readmit an
	// ejected backend — the half-open gate on the health axis. Values < 1
	// select 2.
	ReadmitAfter int
	// Probe checks one backend base URL, returning nil when it is ready.
	// nil selects an HTTP GET of base+"/readyz" expecting 200.
	Probe func(ctx context.Context, base string) error
	// OnChange, when non-nil, observes every eject/readmit. Called outside
	// any lock, from the checker goroutine.
	OnChange func(backend string, healthy bool)
}

// healthChecker runs one probe loop over the fleet's backends, maintaining
// each backend's healthy bit and consecutive-outcome counters. Ejection is
// advisory: the dispatcher deprioritizes ejected backends (tries them only
// when every healthy replica has already failed), it never unmaps them.
type healthChecker struct {
	cfg      HealthConfig
	backends []*backend
	client   *http.Client

	stop chan struct{}
	done chan struct{}
}

// newHealthChecker resolves defaults. Call run in a goroutine to start and
// close stop to halt; done closes when the loop has fully exited.
func newHealthChecker(cfg HealthConfig, backends []*backend, client *http.Client) *healthChecker {
	orDefault(&cfg.Interval, 500*time.Millisecond)
	if cfg.Timeout <= 0 || cfg.Timeout > cfg.Interval {
		cfg.Timeout = cfg.Interval
	}
	orDefault(&cfg.EjectAfter, 3)
	orDefault(&cfg.ReadmitAfter, 2)
	hc := &healthChecker{
		cfg:      cfg,
		backends: backends,
		client:   client,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if hc.cfg.Probe == nil {
		hc.cfg.Probe = hc.httpProbe
	}
	return hc
}

// httpProbe is the default probe: GET base/readyz, 200 means ready. A
// backend that answers anything else — including a clean 503 "warming" or
// "draining" — is not ready for traffic, which is exactly what the warm-up
// protocol relies on: a restarted backend stays ejected until its cache
// transfer finishes.
func (hc *healthChecker) httpProbe(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := hc.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	return nil
}

// run is the probe loop; it exits when stop closes.
func (hc *healthChecker) run() {
	defer close(hc.done)
	ticker := time.NewTicker(hc.cfg.Interval)
	defer ticker.Stop()
	for {
		hc.round()
		select {
		case <-hc.stop:
			return
		case <-ticker.C:
		}
	}
}

// round probes every backend concurrently and applies the outcomes.
func (hc *healthChecker) round() {
	ctx, cancel := context.WithTimeout(context.Background(), hc.cfg.Timeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, b := range hc.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			hc.apply(b, hc.cfg.Probe(ctx, b.base) == nil)
		}(b)
	}
	wg.Wait()
}

// apply folds one probe outcome into the backend's health state.
func (hc *healthChecker) apply(b *backend, ok bool) {
	flipped := false // b.healthy became ok
	b.mu.Lock()
	if ok {
		b.consecFail = 0
		b.consecOK++
		if !b.healthy && b.consecOK >= hc.cfg.ReadmitAfter {
			b.healthy = true
			b.readmits++
			flipped = true
		}
	} else {
		b.consecOK = 0
		b.consecFail++
		if b.healthy && b.consecFail >= hc.cfg.EjectAfter {
			b.healthy = false
			b.ejections++
			flipped = true
		}
	}
	b.mu.Unlock()
	if flipped && !ok {
		b.obsEjections.Inc()
	}
	if cb := hc.cfg.OnChange; flipped && cb != nil {
		cb(b.base, ok)
	}
}
