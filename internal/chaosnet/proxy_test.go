package chaosnet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/leakcheck"
)

// testBody is large enough that a corruption offset drawn in the default
// window always lands inside it.
var testBody = bytes.Repeat([]byte("symbios-fleet-response-"), 100) // 2300 bytes

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(integrity.Header, integrity.Digest(testBody))
		w.Write(testBody)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// proxyFor stands a Proxy up in front of an httptest server and returns the
// proxy's base URL.
func proxyFor(t *testing.T, cfg Config, srv *httptest.Server) (*Proxy, string) {
	t.Helper()
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatalf("parse backend url: %v", err)
	}
	p, err := NewProxy(cfg, "127.0.0.1:0", u.Host, "test-proxy")
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p, "http://" + p.Addr()
}

// noKeepAliveClient forces one connection per request so per-connection
// fault plans map one-to-one onto requests.
func noKeepAliveClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
}

func TestProxyCleanRelay(t *testing.T) {
	leakcheck.Check(t)
	srv := testServer(t)
	_, base := proxyFor(t, Config{Seed: 3}, srv)
	client := noKeepAliveClient(5 * time.Second)
	for i := 0; i < 3; i++ {
		resp, err := client.Get(base)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(body, testBody) {
			t.Fatalf("get %d: body altered by clean proxy", i)
		}
		if err := integrity.Check(resp.Header.Get(integrity.Header), body); err != nil {
			t.Fatalf("get %d: digest %v", i, err)
		}
	}
}

func TestProxyReset(t *testing.T) {
	leakcheck.Check(t)
	srv := testServer(t)
	p, base := proxyFor(t, Config{Seed: 3, ResetP: 1}, srv)
	client := noKeepAliveClient(5 * time.Second)
	if _, err := client.Get(base); err == nil {
		t.Fatal("ResetP=1 request succeeded through proxy")
	}
	if s := p.Stats(); s.Resets == 0 {
		t.Fatalf("stats: %+v, want resets", s)
	}
}

// TestProxyCorruptionNeverDeliversCleanLie runs corrupted relays and
// requires every exchange to be either a transport-level error or a body
// the digest rejects — at no point does a corrupt body verify clean. The
// seed is fixed, so the per-request outcomes are stable.
func TestProxyCorruptionNeverDeliversCleanLie(t *testing.T) {
	leakcheck.Check(t)
	srv := testServer(t)
	p, base := proxyFor(t, Config{Seed: 3, CorruptP: 1, CorruptWindow: uint64(len(testBody))}, srv)
	client := noKeepAliveClient(5 * time.Second)
	caught := 0
	const reqs = 8
	for i := 0; i < reqs; i++ {
		resp, err := client.Get(base)
		if err != nil {
			caught++ // corrupted headers surface as a transport error
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			caught++
			continue
		}
		if cerr := integrity.Check(resp.Header.Get(integrity.Header), body); cerr != nil {
			// Any digest failure counts as caught: a flipped body byte is a
			// mismatch, and a flip inside the digest header itself shows up
			// as malformed or missing — all rejected by a strict verifier.
			if !errors.Is(cerr, integrity.ErrMismatch) && !errors.Is(cerr, integrity.ErrMalformed) && !errors.Is(cerr, integrity.ErrMissing) {
				t.Fatalf("req %d: unexpected digest error %v", i, cerr)
			}
			caught++
			continue
		}
		// Digest verified clean: the flip must have landed outside the
		// payload (headers that don't affect the body, e.g. Date).
		if !bytes.Equal(body, testBody) {
			t.Fatalf("req %d: corrupt body passed the digest check", i)
		}
	}
	if caught == 0 {
		t.Fatalf("%d corrupted relays, none caught", reqs)
	}
	if s := p.Stats(); s.Corruptions == 0 {
		t.Fatalf("stats: %+v, want corruptions", s)
	}
}

// TestProxyPartitionHangsAndCloseUnblocks checks a partitioned relay hangs
// the client until its timeout, and that Close tears everything down while
// connections are mid-hold (the leakcheck gate proves nothing survives).
func TestProxyPartitionHangsAndCloseUnblocks(t *testing.T) {
	leakcheck.Check(t)
	srv := testServer(t)
	p, base := proxyFor(t, Config{
		Seed:           3,
		PartitionEvery: time.Hour,
		PartitionFor:   time.Hour,
	}, srv)
	client := noKeepAliveClient(200 * time.Millisecond)
	start := time.Now()
	if _, err := client.Get(base); err == nil {
		t.Fatal("request through partitioned proxy succeeded")
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("partitioned request failed after %s; should hang to the timeout", d)
	}
	// Fire another request that will be mid-hold when Close lands.
	go func() {
		c := noKeepAliveClient(5 * time.Second)
		c.Get(base)
	}()
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("proxy Close hung with a connection mid-partition")
	}
	if s := p.Stats(); s.Partitions == 0 {
		t.Fatalf("stats: %+v, want partition holds", s)
	}
}
