//go:build unix

package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"symbios/internal/checkpoint"
	"symbios/internal/leakcheck"
)

// lockedBuffer collects the daemon's log while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonRestartResumesAndWarms runs the daemon's own main the way a
// fleet node is restarted: on the checkpoint its previous life left behind,
// warm from a sibling named in a -warm-from list with stray spaces and
// blanks. It must resume that checkpoint, merge the sibling's export, answer
// both recorded requests as byte-identical cache hits, and on SIGTERM drain,
// log "drained cleanly" and exit 0.
func TestDaemonRestartResumesAndWarms(t *testing.T) {
	leakcheck.Check(t)
	// A literal rather than serve.OpenCache: checkpoints written by earlier
	// daemons carry exactly this identity, and a restart must resume them.
	meta := checkpoint.Meta{Exp: "sosd", Scale: "serve", Seed: 1}
	const (
		own     = `{"mix":"Jsb(4,2,2)","seed":1,"samples":2,"mode":"rank"}`
		sibling = `{"mix":"Jsb(4,2,2)","seed":2,"samples":2,"mode":"rank"}`
	)
	record := func(path, body string) (*httptest.Server, []byte) {
		t.Helper()
		_, ts := newTestServer(t, testServerOpts{rec: checkpoint.NewRecorder(path, meta, 1)})
		status, answer := postSchedule(t, ts, body, "t")
		if status != http.StatusOK {
			t.Fatalf("recording %s: status %d: %s", body, status, answer)
		}
		return ts, answer
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "node.ckpt")
	_, wantOwn := record(ckpt, own)
	sib, wantSibling := record(filepath.Join(dir, "sibling.ckpt"), sibling)

	logs := &lockedBuffer{}
	exit := make(chan int, 1)
	go func() {
		exit <- realMain([]string{"-addr", "127.0.0.1:0", "-checkpoint", ckpt,
			"-warm-from", " " + sib.URL + " ,, ", "-drain", "5s"}, io.Discard, logs)
	}()
	running := func() {
		t.Helper()
		select {
		case code := <-exit:
			t.Fatalf("daemon exited %d early:\n%s", code, logs)
		default:
		}
	}
	waitLog := func(re string) []string {
		t.Helper()
		rx := regexp.MustCompile(re)
		for end := time.Now().Add(20 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
			if m := rx.FindStringSubmatch(logs.String()); m != nil {
				return m
			}
			running()
		}
		t.Fatalf("daemon never logged %q:\n%s", re, logs)
		return nil
	}
	base := "http://" + waitLog(`listening on (\S+)`)[1]
	waitLog(`resumed 1 cached responses from ` + regexp.QuoteMeta(ckpt))
	waitLog(`warmed 1 cached responses \(\d+ bytes\) from ` + regexp.QuoteMeta(sib.URL))

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(end) {
			t.Fatalf("/readyz never turned 200 after the warm-up:\n%s", logs)
		}
	}
	for _, c := range []struct {
		body string
		want []byte
	}{{own, wantOwn}, {sibling, wantSibling}} {
		resp, err := client.Post(base+"/v1/schedule", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("POST %s: %v", c.body, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(got, c.want) {
			t.Errorf("%s after restart: status %d, X-Cache %q, err %v, body %s; want a 200 hit with %s",
				c.body, resp.StatusCode, resp.Header.Get("X-Cache"), err, got, c.want)
		}
	}
	client.CloseIdleConnections()

	running()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != exitOK {
			t.Errorf("exit %d after SIGTERM, want %d:\n%s", code, exitOK, logs)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("daemon still running 20s after SIGTERM:\n%s", logs)
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("no clean drain in the daemon log:\n%s", logs)
	}
}
