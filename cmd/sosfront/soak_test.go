package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symbios/internal/chaosnet"
	"symbios/internal/fleet"
	"symbios/internal/integrity"
	"symbios/internal/leakcheck"
	"symbios/internal/obs"
	"symbios/internal/rng"
	"symbios/internal/serve"
)

// soakResult tallies one fleet soak against the fleet contract.
type soakResult struct {
	sent, ok, shed int
	// verified counts the distinct 200 bodies checked against the oracle.
	verified   int
	violations []string
}

// passed reports whether the fleet kept the contract and answered at least
// one request.
func (r soakResult) passed() bool { return len(r.violations) == 0 && r.ok > 0 }

// check fails t unless the soak passed, naming every violation.
func (r soakResult) check(t *testing.T) {
	t.Helper()
	t.Logf("fleet soak: sent=%d 200=%d shed=%d verified=%d violations=%d",
		r.sent, r.ok, r.shed, r.verified, len(r.violations))
	for _, v := range r.violations {
		t.Errorf("VIOLATION: %s", v)
	}
	if r.ok == 0 {
		t.Error("no request ever succeeded")
	}
}

// fleetSoak drives paced deterministic load through the front at frontURL
// for dur and holds it to the fleet contract: every request is answered
// (200), or shed cleanly (429/503/502 carrying Retry-After — a 502 is the
// front reporting every replica for the key failed, which under partitions
// or quarantine is honest shedding, not a lie); EVERY body — success, shed,
// or error, backend-relayed or front-synthesized — carries a digest that
// verifies; and every 200 is byte-identical to what a single-node oracle
// sosd computes for the same request. Any transport error, un-hinted shed,
// unexpected status, missing/wrong digest or byte mismatch is a violation.
//
// The oracle answers are memoized per body: identical requests must produce
// identical bytes, so one oracle evaluation settles every recurrence.
func fleetSoak(frontURL, oracleURL string, dur time.Duration, seed uint64, rate float64) soakResult {
	pace := time.Duration(float64(time.Second) / rate)
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
			switch {
			case err != nil:
				lastErr = err
			case resp.StatusCode == http.StatusOK:
				oracleCache[string(body)] = data
				return data, nil
			case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
				lastErr = fmt.Errorf("oracle shed %d", resp.StatusCode)
			default:
				return nil, fmt.Errorf("oracle status %d: %s", resp.StatusCode, data)
			}
			time.Sleep(250 * time.Millisecond)
		}
		return nil, fmt.Errorf("oracle never answered: %w", lastErr)
	}

	var res soakResult
	violate := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}
	mixLabels := []string{"Jsb(4,2,2)", "Jsb(5,2,2)", "Jsb(6,3,3)"}
	r := rng.New(seed)
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		if i > 0 {
			time.Sleep(pace)
		}
		// A small seed space on purpose: recurring requests exercise the
		// response caches, the warm-up transfer and singleflight coalescing.
		body, _ := json.Marshal(serve.ScheduleRequest{
			Mix:        mixLabels[int(r.Uint64()%uint64(len(mixLabels)))],
			Seed:       r.Uint64() % 64,
			Samples:    int(2 + r.Uint64()%3),
			Mode:       "rank",
			DeadlineMS: 20_000,
		})
		resp, data, err := post(frontURL, body, fmt.Sprintf("fleet-load-%d", i%4))
		res.sent++
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
			res.ok++
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
			} else {
				res.shed++
			}
		default:
			violate("unexpected status %d: %s", resp.StatusCode, data)
		}
	}
	res.verified = len(oracleCache)
	return res
}

// backendConfig is sosd's default policy with room for a soak's offered
// load (-rate 500) and a reduced cycle budget, so a rank request answers in
// tens of milliseconds.
func backendConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Rate = 500
	cfg.Scale.Slice = 5_000
	cfg.Scale.WarmupCycles = 20_000
	return cfg
}

// node is one sosd in process, on a real TCP listener so a chaos proxy or a
// front can reach it like a daemon. A restarted node keeps its address, so
// a front's backend list stays valid across a kill.
type node struct {
	addr string
	srv  *serve.Server
	hs   *http.Server
}

// startNode boots a node on addr ("127.0.0.1:0" picks a port) with a
// response cache at ckpt, opened as `sosd -scale serve -checkpoint` opens it
// (resumed when the file exists) and flushed on every record. Named siblings
// warm the cache before startNode returns, as `sosd -warm-from` does before
// /readyz turns 200.
func startNode(t *testing.T, addr, ckpt string, cfg serve.Config, siblings ...string) *node {
	t.Helper()
	rec, _, err := serve.OpenCache(ckpt, "serve", cfg, 1)
	if err != nil {
		t.Fatalf("opening %s: %v", ckpt, err)
	}
	n := &node{srv: serve.New(cfg, rec, nil, nil)}
	var warmed <-chan struct{}
	if len(siblings) > 0 {
		warmed = n.srv.WarmFrom(siblings, 10*time.Second)
	}
	var ln net.Listener
	// The port of a killed node is free again at once (listeners set
	// SO_REUSEADDR), but give the kernel a moment if it disagrees.
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	n.addr = ln.Addr().String()
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go n.hs.Serve(ln)
	t.Cleanup(n.kill)
	if warmed != nil {
		<-warmed
	}
	return n
}

func (n *node) url() string { return "http://" + n.addr }

// kill drops the node the way SIGKILL drops the daemon: the listener and
// every connection go at once, with no drain. The orphaned evaluations are
// hard-stopped so no goroutine outlives the node; the cache file was
// already current, being flushed on every record.
func (n *node) kill() {
	n.hs.Close()
	n.srv.Shutdown(0, nil)
}

// stop drains the node the way SIGTERM drains the daemon.
func (n *node) stop(t *testing.T) {
	t.Helper()
	if err := n.srv.Shutdown(15*time.Second, n.hs); err != nil {
		t.Errorf("drain %s: %v", n.addr, err)
	}
}

// startFront boots a front over backends with sosfront's flag defaults plus
// the given flags, metrics on.
func startFront(t *testing.T, backends []string, flags ...string) (*fleet.Front, *httptest.Server) {
	t.Helper()
	o, ok := parseFlags(append([]string{"-backends", strings.Join(backends, ",")}, flags...), io.Discard)
	if !ok {
		t.Fatalf("front flags %v rejected", flags)
	}
	o.front.Registry = obs.NewRegistry() // as the daemon always runs
	front, err := fleet.New(o.front)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	front.Start()
	t.Cleanup(func() {
		front.Draining()
		ts.Close()
		front.Close()
	})
	return front, ts
}

// postSchedule sends one schedule request, failing t on a transport error.
func postSchedule(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", base, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: %v", base, err)
	}
	return resp, data
}

// TestFleetSoak soaks a 1-front/3-backend fleet and asserts the fleet
// contract: paced load through the front survives a killed backend with
// zero failed client requests (429/503/502 with Retry-After are allowed),
// every 200 is byte-identical to a single-node oracle, and the killed
// backend restarts at its address, warms its response cache from a ring
// sibling before serving, and answers its first post-warm request as a
// byte-identical cache hit.
func TestFleetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet soak skipped in -short mode")
	}
	leakcheck.Check(t)
	defer http.DefaultClient.CloseIdleConnections()
	const soakFor = 9 * time.Second
	dir := t.TempDir()
	cfg := backendConfig()
	oracle := startNode(t, "127.0.0.1:0", filepath.Join(dir, "oracle.ckpt"), cfg)
	var b [3]*node
	var urls []string
	for i := range b {
		b[i] = startNode(t, "127.0.0.1:0", filepath.Join(dir, fmt.Sprintf("b%d.ckpt", i+1)), cfg)
		urls = append(urls, b[i].url())
	}
	_, front := startFront(t, urls, "-replicas", "2")

	// Seed the warm canary into a surviving backend's cache: seed 4242 is
	// outside the soak load's seed space (0..63), so only this request puts
	// it there. After the kill and restart, b3 must answer it as a hit it
	// could only have received from a sibling's cache transfer.
	const canary = `{"mix":"Jsb(4,2,2)","seed":4242,"samples":2,"mode":"rank","deadline_ms":15000}`
	resp, want := postSchedule(t, b[0].url(), canary)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("canary seed request to b1: %d %s", resp.StatusCode, want)
	}

	soaked := make(chan soakResult, 1)
	go func() { soaked <- fleetSoak(front.URL, oracle.url(), soakFor, 1, 40) }()

	time.Sleep(soakFor / 3)
	b[2].kill()
	time.Sleep(2 * time.Second)
	b[2] = startNode(t, b[2].addr, filepath.Join(dir, "b3.ckpt"), cfg, b[0].url(), b[1].url())

	resp, got := postSchedule(t, b[2].url(), canary)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("post-warm canary on restarted b3: status %d, X-Cache %q, want a 200 hit",
			resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("post-warm canary differs from the sibling's recording:\nb1: %s\nb3: %s", want, got)
	}

	(<-soaked).check(t)
	for _, n := range append(b[:], oracle) {
		n.stop(t)
	}
}

// TestPartitionSoak soaks the fleet through chaos proxies and asserts the
// integrity contract: wire corruption, resets, latency and a timed
// blackhole partition between the front and its backends, yet zero
// digest-mismatched or oracle-divergent bodies reach the client; a replica
// answering deterministically wrong bytes is convicted and quarantined
// before the checked load starts; and once its divergence window closes,
// clean readmit probes lift the quarantine while traffic still flows.
func TestPartitionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("partition soak skipped in -short mode")
	}
	leakcheck.Check(t)
	defer http.DefaultClient.CloseIdleConnections()
	const (
		soakFor    = 10 * time.Second
		divergeFor = 8 * time.Second // closes mid-soak, so readmission follows it
	)
	dir := t.TempDir()
	cfg := backendConfig()
	oracle := startNode(t, "127.0.0.1:0", filepath.Join(dir, "oracle.ckpt"), cfg)
	b1 := startNode(t, "127.0.0.1:0", filepath.Join(dir, "b1.ckpt"), cfg)
	b2 := startNode(t, "127.0.0.1:0", filepath.Join(dir, "b2.ckpt"), cfg)
	divergent := cfg
	divergent.Divergence = 1
	divergent.DivergenceFor = divergeFor
	b3 := startNode(t, "127.0.0.1:0", filepath.Join(dir, "b3.ckpt"), divergent)

	// p1 carries the blackhole partition (one window, inside the soak); p2
	// carries bit corruption plus resets; p3 only adds latency — b3's
	// divergence is the application-level fault under test and should not be
	// confounded by wire damage.
	latency := chaosnet.Config{Seed: 42, LatencyP: 0.2, LatencyMin: 5 * time.Millisecond, LatencyMax: 50 * time.Millisecond}
	partitioned, damaged := latency, latency
	partitioned.PartitionEvery, partitioned.PartitionFor, partitioned.PartitionStart = 10*time.Minute, 3*time.Second, 4*time.Second
	damaged.CorruptP, damaged.ResetP = 0.5, 0.1
	var proxies []*chaosnet.Proxy
	for i, p := range []struct {
		cfg     chaosnet.Config
		backend *node
	}{{partitioned, b1}, {damaged, b2}, {latency, b3}} {
		px, err := chaosnet.NewProxy(p.cfg, "127.0.0.1:0", p.backend.addr, fmt.Sprintf("b%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { px.Close() })
		proxies = append(proxies, px)
	}
	front, ts := startFront(t,
		[]string{"http://" + proxies[0].Addr(), "http://" + proxies[1].Addr(), "http://" + proxies[2].Addr()},
		"-replicas", "2", "-attempt-timeout", "2s", "-audit-rate", "1", "-audit-seed", "7",
		"-quarantine-after", "3", "-quarantine-readmit", "2")

	quarantined := func() int {
		n := 0
		for _, b := range front.Stats().Backends {
			if b.Quarantined {
				n++
			}
		}
		return n
	}
	// drive posts distinct fingerprints (seeds outside the soak's 0..63)
	// until done holds, reporting whether it ever did.
	drive := func(seedBase int, done func() bool) bool {
		for i := 1; i <= 100; i++ {
			body := fmt.Sprintf(`{"mix":"Jsb(4,2,2)","seed":%d,"samples":2,"mode":"rank","deadline_ms":15000}`, seedBase+i)
			postSchedule(t, ts.URL, body)
			if done() {
				return true
			}
			time.Sleep(100 * time.Millisecond)
		}
		return false
	}

	// Prime the quarantine with unchecked traffic: the audits cross-check
	// fresh evaluations until b3 crosses the threshold. Only then does the
	// oracle-checked soak start — from that point on, a divergent body
	// reaching the client is a hard failure.
	if !drive(20_000, func() bool { return quarantined() == 1 }) {
		t.Fatalf("divergent replica never quarantined during priming: %+v", front.Stats().Backends)
	}

	fleetSoak(ts.URL, oracle.url(), soakFor, 1, 40).check(t)

	// By now b3's divergence window has closed; a trickle of traffic lets the
	// readmit probes (which ride the audit draws) lift the quarantine.
	if !drive(30_000, func() bool { return quarantined() == 0 }) {
		t.Fatalf("quarantine never lifted after the divergence window closed: %+v", front.Stats().Backends)
	}
	var episodes, readmits uint64
	for _, b := range front.Stats().Backends {
		episodes += b.Quarantines
		readmits += b.QReadmits
	}
	if episodes == 0 || readmits == 0 {
		t.Errorf("quarantine episodes %d, readmissions %d: want both recorded", episodes, readmits)
	}

	// The proxies' counters prove the chaos actually fired: the partition
	// window held traffic, and a corruption or reset hit a live connection.
	if st := proxies[0].Stats(); st.Partitions == 0 {
		t.Errorf("the blackhole partition never held a connection: %+v", st)
	}
	if st := proxies[1].Stats(); st.Corruptions+st.Resets == 0 {
		t.Errorf("no corruption or reset ever fired: %+v", st)
	}
	for _, n := range []*node{b1, b2, b3, oracle} {
		n.stop(t)
	}
}
