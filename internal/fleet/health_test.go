package fleet

import (
	"context"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"symbios/internal/leakcheck"
)

// scriptedProbe answers probes from a per-backend boolean the test flips.
type scriptedProbe struct {
	mu sync.Mutex
	up map[string]bool
}

func (p *scriptedProbe) probe(ctx context.Context, base string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.up[base] {
		return nil
	}
	return context.DeadlineExceeded
}

func (p *scriptedProbe) set(base string, up bool) {
	p.mu.Lock()
	p.up[base] = up
	p.mu.Unlock()
}

// lineLog collects the lines a logger writes.
type lineLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *lineLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.lines = append(l.lines, strings.TrimSuffix(string(p), "\n"))
	l.mu.Unlock()
	return len(p), nil
}

func (l *lineLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHealthCheckerEjectAndReadmit drives a backend down and back up
// through the probe loop: ejected only after EjectAfter consecutive
// failures, readmitted only after ReadmitAfter consecutive successes.
func TestHealthCheckerEjectAndReadmit(t *testing.T) {
	leakcheck.Check(t)
	probe := &scriptedProbe{up: map[string]bool{"http://a": true, "http://b": true}}
	lines := &lineLog{}
	f := newTestFront(t, nil, func(cfg *Config) {
		cfg.Backends = []string{"http://a", "http://b"}
		cfg.Health = HealthConfig{Interval: 3 * time.Millisecond, EjectAfter: 3, ReadmitAfter: 2, Probe: probe.probe}
		cfg.Logger = log.New(lines, "", 0)
	})
	f.Start()

	a, b := f.byBase["http://a"], f.byBase["http://b"]
	// A single failed probe must not eject (EjectAfter = 3).
	probe.set("http://a", false)
	waitFor(t, "one failed probe", func() bool { return a.state().streak >= 1 })
	probe.set("http://a", true)
	waitFor(t, "failure streak reset", func() bool { return a.state().streak == 0 })
	if !a.state().healthy {
		t.Fatal("backend ejected after a single failed probe")
	}

	// A sustained outage ejects; the healthy peer is untouched.
	probe.set("http://a", false)
	waitFor(t, "ejection", func() bool { return !a.state().healthy })
	if !b.state().healthy {
		t.Fatal("healthy peer ejected alongside the sick one")
	}

	// Recovery readmits after ReadmitAfter consecutive successes.
	probe.set("http://a", true)
	waitFor(t, "readmission", func() bool { return a.state().healthy })

	if st := a.state(); st.ejections != 1 || st.readmits != 1 {
		t.Fatalf("ejections=%d readmits=%d, want 1 and 1", st.ejections, st.readmits)
	}
	want := []string{"backend http://a ejected", "backend http://a readmitted"}
	got := lines.list()
	if len(got) < 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("log %q, want prefix %q", got, want)
	}
}

// TestHealthCheckerStops checks Close halts the probe loop promptly even
// mid-round, and that a probe Close cuts short ejects no one.
func TestHealthCheckerStops(t *testing.T) {
	leakcheck.Check(t)
	var probes atomic.Int64
	f := newTestFront(t, nil, func(cfg *Config) {
		cfg.Backends = []string{"http://a"}
		cfg.Health = HealthConfig{Interval: time.Hour, EjectAfter: 1, Probe: func(ctx context.Context, base string) error {
			probes.Add(1)
			<-ctx.Done() // the round only ends when Close cancels it
			return ctx.Err()
		}}
	})
	f.Start()
	waitFor(t, "first probe", func() bool { return probes.Load() > 0 })
	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("probe loop did not stop")
	}
	if !f.byBase["http://a"].state().healthy {
		t.Fatal("a probe cut short by Close ejected its backend")
	}
}
