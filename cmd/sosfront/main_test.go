package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"symbios/internal/fleet"
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

// TestFlagSet pins sosfront's flags: each one is set by a test, the
// benchmark or a documented procedure, and every other knob is fixed at
// fleet.DefaultConfig's value.
func TestFlagSet(t *testing.T) {
	var stderr bytes.Buffer
	if code := realMain([]string{"-h"}, io.Discard, &stderr); code != exitUsage {
		t.Fatalf("-h: exit %d, want %d", code, exitUsage)
	}
	got := strings.Join(regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllString(stderr.String(), -1), "")
	want := "  -addr  -attempt-timeout  -audit-rate  -audit-seed  -backends  -drain" +
		"  -quarantine-after  -quarantine-readmit  -replicas  -version"
	if got != want {
		t.Errorf("flags:\n got %s\nwant %s", got, want)
	}
}

// TestParseFlagsDefaults checks that a front given only -backends runs
// with fleet.DefaultConfig.
func TestParseFlagsDefaults(t *testing.T) {
	o, ok := parseFlags([]string{"-backends", "http://a,http://b"}, io.Discard)
	if !ok {
		t.Fatal("parseFlags rejected -backends alone")
	}
	want := fleet.DefaultConfig()
	want.Backends = []string{"http://a", "http://b"}
	if !reflect.DeepEqual(o.front, want) {
		t.Errorf("config\n got %+v\nwant %+v", o.front, want)
	}
	if o.addr != "127.0.0.1:8822" || o.drain != 10*time.Second {
		t.Errorf("addr %q drain %v, want 127.0.0.1:8822 and 10s", o.addr, o.drain)
	}
}

// signalOnLine sends the process SIGTERM from inside the Write that carries
// the address line — before the logger call that printed it returns — the
// way a supervisor that signals as soon as it reads the line races the
// front's start-up at worst. Every write is kept for the assertions.
type signalOnLine struct {
	mu   sync.Mutex
	logs strings.Builder
	sent bool
}

func (w *signalOnLine) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.logs.Write(p)
	if !w.sent && strings.Contains(string(p), "listening on") {
		w.sent = true
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (w *signalOnLine) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.logs.String()
}

// TestRealMainDrainsSignalAtAddressLine: the front subscribes to signals
// before it prints the address line, so a SIGTERM sent the moment the line
// appears drains it cleanly instead of killing it (and this test binary)
// undrained.
func TestRealMainDrainsSignalAtAddressLine(t *testing.T) {
	backend := scheduleStandIn(t, honest)
	logs := &signalOnLine{}
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{"-backends", backend, "-addr", "127.0.0.1:0", "-drain", "5s"}, io.Discard, logs)
	}()
	select {
	case code := <-exit:
		if code != exitOK {
			t.Fatalf("exit %d after SIGTERM, want %d:\n%s", code, exitOK, logs)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("front still running 30s after SIGTERM:\n%s", logs)
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("no clean drain logged:\n%s", logs)
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
