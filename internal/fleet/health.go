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
	// Interval is the probe cadence and bounds one probe. Values <= 0
	// select 500ms.
	Interval time.Duration
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
}

// httpProbe is the default probe: GET base/readyz, 200 means ready. A
// backend that answers anything else — including a clean 503 "warming" or
// "draining" — is not ready for traffic, which is exactly what the warm-up
// protocol relies on: a restarted backend stays ejected until its cache
// transfer finishes.
func (f *Front) httpProbe(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
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

// probeLoop probes every backend concurrently each Interval until Close,
// feeding each outcome to the backend's machine. A probe is bounded by
// Interval, so one slow backend cannot stall a round and a round never
// overlaps the next; a probe cut short by Close is no verdict. Ejection is
// advisory: the dispatcher tries ejected backends only when every healthy
// replica has already failed, it never unmaps them.
func (f *Front) probeLoop() {
	defer f.wg.Done()
	ticker := time.NewTicker(f.cfg.Health.Interval)
	defer ticker.Stop()
	for {
		ctx, cancel := context.WithTimeout(f.base, f.cfg.Health.Interval)
		var wg sync.WaitGroup
		for _, b := range f.backends {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				e := backendEvent{kind: probeOK}
				if f.cfg.Health.Probe(ctx, b.base) != nil {
					e.kind = probeFailed
				}
				if f.base.Err() == nil {
					b.feed(e, f.cfg.Logger)
				}
			}(b)
		}
		wg.Wait()
		cancel()
		select {
		case <-f.base.Done():
			return
		case <-ticker.C:
		}
	}
}
