package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. IDs are indices into the
// tracer's slice; Parent is -1 for a root. Spans of one request share Req.
// Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer collects spans in memory; nothing is written until the run ends,
// so recording costs one mutex hop and no I/O on the measured path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id. Closing twice keeps the first end.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id].End < 0 {
		t.spans[id].End = now
	}
}

// snapshot returns the closed spans recorded so far. Spans still open (a
// background audit outliving the run) are dropped: an interval without an
// end has no duration to attribute.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	remap := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			remap[i] = -1
			continue
		}
		remap[i] = len(out)
		out = append(out, s)
	}
	for i := range out {
		if p := out[i].Parent; p >= 0 {
			out[i].Parent = remap[p]
		}
	}
	return out
}

// writeJSONL writes spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by the union of its direct children. Children are clipped to the
// parent's interval, so a child that outlives its parent (a hedge loser
// still draining after the winner was served) only removes the time it
// actually overlapped; overlapping children (a primary and its hedge) are
// counted once.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.Start
		for _, v := range ivs {
			if v.hi <= edge {
				continue
			}
			covered += v.hi - max(v.lo, edge)
			edge = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// dispatchScope is what the recording transport attributes a backend call
// to: the fleet.dispatch span of the one request in flight. The traced run
// is closed-loop on one connection, so "the request in flight" is
// unambiguous; returned flips once Dispatch has handed back its answer, and
// any backend call starting after that is background work (an audit), not a
// step the client waited for.
type dispatchScope struct {
	span, req int
	returned  atomic.Bool
}

// spanTransport wraps the http.RoundTripper handed to an in-process
// fleet.Front and records one span per /v1/schedule backend call, from the
// moment the front issues it until the front has read the last body byte.
type spanTransport struct {
	base  http.RoundTripper
	tr    *tracer
	scope atomic.Pointer[dispatchScope]
}

func (st *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sc := st.scope.Load()
	if sc == nil || r.URL.Path != "/v1/schedule" {
		return st.base.RoundTrip(r) // health probes are not request work
	}
	name := "wire.attempt"
	if sc.returned.Load() {
		name = "fleet.audit"
	}
	id := st.tr.begin(name, sc.span, sc.req)
	resp, err := st.base.RoundTrip(r)
	if err != nil {
		st.tr.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { st.tr.end(id) }}
	return resp, nil
}

// spanBody ends its span when the body is drained or closed, whichever the
// caller does first.
type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.done()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.done()
	return b.ReadCloser.Close()
}
