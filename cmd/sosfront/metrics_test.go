package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"testing"

	"symbios/internal/fleet"
	"symbios/internal/leakcheck"
	"symbios/internal/obs"
)

// TestFrontMetricsExposition scrapes a front over one sosd after a request
// has passed through and holds its /metrics and /statz to the scrape
// contract: a valid exposition carrying every fleet family, exactly one
// hedge-delay series per request class (bounded cardinality),
// fleet_hedges_total as a single unlabelled series (the benchmark reads it
// by that name), and a hedge_delay_ms entry per class in /statz.
func TestFrontMetricsExposition(t *testing.T) {
	leakcheck.Check(t)
	defer http.DefaultClient.CloseIdleConnections()
	b := startNode(t, "127.0.0.1:0", filepath.Join(t.TempDir(), "b.ckpt"), backendConfig())
	_, ts := startFront(t, []string{b.url()})
	if resp, body := postSchedule(t, ts.URL, `{"mix":"Jsb(4,2,2)","seed":7,"samples":4}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule through the front: %d %s", resp.StatusCode, body)
	}

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return body
	}
	scrape := get("/metrics")
	families, err := obs.ParseText(bytes.NewReader(scrape))
	if err != nil {
		t.Fatalf("front exposition does not parse: %v\n%s", err, scrape)
	}
	for _, fam := range []string{
		"fleet_backend_requests_total", "fleet_backend_failures_total", "fleet_backend_ejections_total",
		"fleet_failovers_total", "fleet_hedges_total", "fleet_hedge_wins_total", "fleet_hedge_delay_seconds",
		"fleet_coalesced_total", "fleet_audits_total", "fleet_audit_mismatches_total",
		"fleet_integrity_failures_total", "fleet_divergences_total", "fleet_quarantines_total",
		"fleet_healthy_backends", "fleet_quarantined_backends",
	} {
		if _, ok := families[fam]; !ok {
			t.Errorf("front exposition missing family %s", fam)
		}
	}
	delays := regexp.MustCompile(`(?m)^fleet_hedge_delay_seconds\{class="(\w+)"\} `).FindAllSubmatch(scrape, -1)
	var classes []string
	for _, m := range delays {
		classes = append(classes, string(m[1]))
	}
	if len(classes) != 3 || len(regexp.MustCompile(`(?m)^fleet_hedge_delay_seconds\{`).FindAll(scrape, -1)) != 3 {
		t.Errorf("hedge-delay series for classes %v, want exactly cached, rank and adaptive", classes)
	}
	if !regexp.MustCompile(`(?m)^fleet_hedges_total [0-9]`).Match(scrape) {
		t.Error("fleet_hedges_total is missing or grew labels")
	}

	var st fleet.Stats
	if err := json.Unmarshal(get("/statz"), &st); err != nil {
		t.Fatalf("decoding /statz: %v", err)
	}
	for _, class := range []string{"cached", "rank", "adaptive"} {
		if _, ok := st.HedgeDelayMS[class]; !ok {
			t.Errorf("/statz hedge_delay_ms has no entry for class %q: %v", class, st.HedgeDelayMS)
		}
	}
	b.stop(t)
}
