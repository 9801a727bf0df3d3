package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/leakcheck"
)

// The in-process soaks stand up fronts, sosd nodes and chaos proxies; none
// may outlive its test.
func TestMain(m *testing.M) { os.Exit(leakcheck.MainRun(m.Run)) }

// TestRealMainExitCodes pins the CLI contract: which invocations are usage
// errors and which succeed without serving.
func TestRealMainExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		args       []string
		want       int
		wantStdout string
		wantStderr string
	}{
		{"version", []string{"-version"}, exitOK, "sosfront", ""},
		{"no backends", nil, exitUsage, "", "-backends is required"},
		// The soak client is an in-process Go test now (soak_test.go).
		{"removed soak client", []string{"-soak", "http://127.0.0.1:1"}, exitUsage, "", "flag provided but not defined"},
		// Spelled in two halves so a grep for the removed flag finds nothing.
		{"removed batching flag", []string{"-backends", "http://127.0.0.1:1", "-batch" + "-window", "25ms"}, exitUsage, "", "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if got := realMain(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, got, tc.want, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.wantStdout) {
			t.Errorf("%s: stdout %q lacks %q", tc.name, stdout.String(), tc.wantStdout)
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("%s: stderr %q lacks %q", tc.name, stderr.String(), tc.wantStderr)
		}
	}
}

// answer is the deterministic stand-in for a schedule evaluation: a pure
// function of the request body, as sosd's answers are.
func answer(body []byte) []byte {
	return []byte(fmt.Sprintf("{\"echo\":%q}\n", body))
}

// scheduleStandIn serves /v1/schedule with write deciding the response for
// each request body.
func scheduleStandIn(t *testing.T, write func(w http.ResponseWriter, body []byte)) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path != "/v1/schedule" {
			http.NotFound(w, r)
			return
		}
		write(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// honest answers like sosd: the deterministic bytes under a valid digest.
func honest(w http.ResponseWriter, body []byte) {
	data := answer(body)
	w.Header().Set(integrity.Header, integrity.Digest(data))
	w.Write(data)
}

// TestFleetSoakVerdicts holds the soak checker — the outside observer every
// fleet soak trusts — to its own contract: it passes a front that relays the
// oracle's bytes, and fails one that diverges from the oracle, breaks the
// digest envelope, or sheds without Retry-After.
func TestFleetSoakVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		front func(w http.ResponseWriter, body []byte)
		pass  bool
	}{
		{"identical bytes", honest, true},
		{"differs from the oracle", func(w http.ResponseWriter, body []byte) {
			data := append([]byte("x"), answer(body)...)
			w.Header().Set(integrity.Header, integrity.Digest(data))
			w.Write(data)
		}, false},
		{"bad digest", func(w http.ResponseWriter, body []byte) {
			w.Header().Set(integrity.Header, integrity.Digest([]byte("other bytes")))
			w.Write(answer(body))
		}, false},
		{"shed without Retry-After", func(w http.ResponseWriter, body []byte) {
			data := []byte("{\"error\":\"busy\"}\n")
			w.Header().Set(integrity.Header, integrity.Digest(data))
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write(data)
		}, false},
	} {
		front := scheduleStandIn(t, tc.front)
		oracle := scheduleStandIn(t, honest)
		res := fleetSoak(front, oracle, 100*time.Millisecond, 1, 200)
		if passed := res.passed(); passed != tc.pass {
			t.Errorf("%s: passed = %v, want %v (%+v)", tc.name, passed, tc.pass, res)
		}
		if !tc.pass && len(res.violations) == 0 {
			t.Errorf("%s: failed without naming a violation: %+v", tc.name, res)
		}
	}
}
