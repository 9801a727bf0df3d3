package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/resilience"
)

// The batcher amortizes the wire, not the evaluation: small rank-mode
// requests headed for the same replica set are held briefly, sent
// to one backend as a single POST /v1/schedule/batch envelope, and split back
// into per-request results. Coalescing (singleflight) still runs first — the
// batcher only ever sees distinct bodies — and every item's bytes come back
// byte-identical to its singleton answer, verified per item by the digest the
// envelope carries. Anything the batch path cannot guarantee that for (a
// batch-incapable backend, a damaged item, an item-level shed) falls back to
// the ordinary singleton dispatch, which keeps its failover/hedge semantics.

// maxBatchedBodyBytes bounds a body the batcher will group. Real schedule
// requests are a few hundred bytes; keeping outliers out keeps batch
// payloads far below the backend's envelope cap.
const maxBatchedBodyBytes = 4 << 10

// maxBatchWireItems mirrors sosd's MaxBatchItems bound; BatchMax is clamped
// to it so a front can never build an envelope its backend must refuse.
const maxBatchWireItems = 64

// batchWireItem and batchWireResponse mirror sosd's batch envelope. Decoding
// is lenient on shape — every item is verified by its digest, so a mangled
// envelope is caught cryptographically, not schematically.
type batchWireItem struct {
	Status int             `json:"status"`
	Cache  string          `json:"cache"`
	Digest string          `json:"digest"`
	Body   json.RawMessage `json:"body"`
}

type batchWireResponse struct {
	Items []batchWireItem `json:"items"`
}

// batchableBody reports whether a request body may ride a batch: small, and
// leniently parsing as a rank-mode schedule request. Adaptive runs are not
// batchable server-side, and unparseable garbage dispatches alone so the
// backend's singleton 400 comes back with its usual headers.
func batchableBody(body []byte) bool {
	if len(body) > maxBatchedBodyBytes {
		return false
	}
	var probe struct {
		Mix  string `json:"mix"`
		Mode string `json:"mode"`
	}
	if err := json.Unmarshal(body, &probe); err != nil || probe.Mix == "" {
		return false
	}
	return probe.Mode == "" || probe.Mode == "rank"
}

// pendingItem is one request waiting in an accumulator group.
type pendingItem struct {
	key  string // shard key
	body []byte
	done chan struct{}
	res  *Result
	err  error
}

// batchGroup accumulates items that share a replica set.
type batchGroup struct {
	bases []string // candidate bases in placement order, the flush targets
	items []*pendingItem
	keys  map[string]struct{} // shard keys present, to keep fingerprint twins apart
	timer *time.Timer
}

// batcher owns the per-(backend, shard-set) accumulators.
type batcher struct {
	f      *Front
	window time.Duration
	max    int

	mu     sync.Mutex
	groups map[string]*batchGroup
	closed bool
	// wg tracks every flush and fallback goroutine, so Close can account for
	// all of them (the leakcheck contract every other background worker in
	// the front already meets).
	wg sync.WaitGroup
}

func newBatcher(f *Front, window time.Duration, max int) *batcher {
	if max < 1 {
		max = 16
	}
	if max > maxBatchWireItems {
		max = maxBatchWireItems
	}
	return &batcher{f: f, window: window, max: max, groups: map[string]*batchGroup{}}
}

// enqueue offers body to the accumulator for its replica set and, when
// accepted, blocks until the batch verdict arrives. ok=false means the body
// does not batch here — not batchable, the batcher is closed, no candidate
// speaks the batch protocol, or a same-shard-key sibling is already grouped
// (two bodies can share a fingerprint without sharing bytes, and the backend
// rejects fingerprint duplicates per batch) — and the caller should dispatch
// it as a singleton.
func (ba *batcher) enqueue(key string, body []byte) (res *Result, err error, ok bool) {
	if !batchableBody(body) {
		return nil, nil, false
	}
	cands := ba.f.candidates(key)
	bases := make([]string, 0, len(cands))
	capable := false
	for _, b := range cands {
		bases = append(bases, b.base)
		if !b.batchIncapable.Load() {
			capable = true
		}
	}
	if len(bases) == 0 || !capable {
		return nil, nil, false
	}
	gkey := strings.Join(bases, ",")

	it := &pendingItem{key: key, body: body, done: make(chan struct{})}
	ba.mu.Lock()
	if ba.closed {
		ba.mu.Unlock()
		return nil, nil, false
	}
	g := ba.groups[gkey]
	if g != nil {
		if _, conflict := g.keys[key]; conflict {
			ba.mu.Unlock()
			return nil, nil, false
		}
	} else {
		g = &batchGroup{bases: bases, keys: map[string]struct{}{}}
		ba.groups[gkey] = g
		g.timer = time.AfterFunc(ba.window, func() { ba.flushGroup(gkey, g) })
	}
	g.items = append(g.items, it)
	g.keys[key] = struct{}{}
	if len(g.items) >= ba.max {
		delete(ba.groups, gkey)
		g.timer.Stop()
		ba.wg.Add(1)
		go func() {
			defer ba.wg.Done()
			ba.run(g)
		}()
	}
	ba.mu.Unlock()

	select {
	case <-it.done:
		return it.res, it.err, true
	case <-ba.f.base.Done():
		return nil, ba.f.base.Err(), true
	}
}

// flushGroup is the window timer's callback: detach the group (unless a full
// flush or shutdown already took it) and run it.
func (ba *batcher) flushGroup(gkey string, g *batchGroup) {
	ba.mu.Lock()
	if ba.closed || ba.groups[gkey] != g {
		ba.mu.Unlock()
		return
	}
	delete(ba.groups, gkey)
	ba.wg.Add(1)
	ba.mu.Unlock()
	go func() {
		defer ba.wg.Done()
		ba.run(g)
	}()
}

// run sends one detached group as a batch call and settles every item:
// delivered from the envelope when its digest-verified answer is
// deterministic, re-dispatched as a singleton otherwise.
func (ba *batcher) run(g *batchGroup) {
	f := ba.f
	f.batchFlushes.Add(1)
	f.obsBatchFlushes.Inc()
	f.batchItems.Add(uint64(len(g.items)))
	f.obsBatchItems.Add(uint64(len(g.items)))

	results, err := ba.call(g)
	if err != nil {
		f.logger.Printf("batch flush of %d items: %v; falling back to singleton dispatch", len(g.items), err)
	}
	for i, it := range g.items {
		var res *Result
		if err == nil {
			res = results[i]
		}
		if res == nil {
			ba.fallbackItem(it)
			continue
		}
		it.res = res
		close(it.done)
	}
}

// fallbackItem re-dispatches one item through the ordinary singleton path
// (failover, hedging, breakers), concurrently with its siblings.
func (ba *batcher) fallbackItem(it *pendingItem) {
	f := ba.f
	f.batchFallbacks.Add(1)
	f.obsBatchFallbacks.Inc()
	ba.wg.Add(1)
	go func() {
		defer ba.wg.Done()
		it.res, it.err = f.dispatchBody(it.key, it.body)
		close(it.done)
	}()
}

// deliverableStatus reports whether an item status is a deterministic answer
// the client should see (the batch-path analogue of classGood: 2xx, or a 4xx
// the client earned). Item-level shedding and server errors return false so
// the item retries on the singleton path, which owns failover semantics.
func deliverableStatus(status int) bool {
	if status >= 200 && status < 300 {
		return true
	}
	return status >= 400 && status < 500 && status != http.StatusTooManyRequests
}

// call performs the batch POST against the first batch-capable candidate and
// splits the envelope. The returned slice is parallel to g.items; a nil slot
// means that item needs the singleton fallback. An error means the whole
// call failed and every item needs it.
func (ba *batcher) call(g *batchGroup) ([]*Result, error) {
	f := ba.f
	var b *backend
	for _, base := range g.bases {
		cand := f.byBase[base]
		if cand.batchIncapable.Load() || cand.isQuarantined() {
			continue
		}
		b = cand
		break
	}
	if b == nil {
		return nil, errors.New("no batch-capable replica")
	}

	env := struct {
		Requests []json.RawMessage `json:"requests"`
	}{Requests: make([]json.RawMessage, len(g.items))}
	var maxDeadline int64
	for i, it := range g.items {
		env.Requests[i] = json.RawMessage(it.body)
		var sf shardFields
		json.Unmarshal(it.body, &sf)
		if sf.DeadlineMS > maxDeadline {
			maxDeadline = sf.DeadlineMS
		}
	}
	payload, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}

	ctx, cancel := resilience.WithBudget(f.base,
		time.Duration(maxDeadline)*time.Millisecond, f.cfg.DeadlineDef, f.cfg.DeadlineMax)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/schedule/batch", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", "sosfront")
	b.requests.Add(uint64(len(g.items)))
	b.obsRequests.Add(uint64(len(g.items)))
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("backend %s: %w", b.base, err)
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if rerr != nil {
		return nil, fmt.Errorf("backend %s: reading batch response: %w", b.base, rerr)
	}
	if len(data) > maxResponseBytes {
		return nil, fmt.Errorf("backend %s: batch response exceeds %d bytes", b.base, maxResponseBytes)
	}
	switch resp.StatusCode {
	case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusNotImplemented:
		// A pre-batch backend. Remember, so later windows go straight to a
		// capable replica (or to singleton dispatch when none exists).
		b.batchIncapable.Store(true)
		f.logger.Printf("backend %s has no batch endpoint (%s); disabling batching toward it", b.base, resp.Status)
		return nil, fmt.Errorf("backend %s: no batch endpoint", b.base)
	case http.StatusOK:
	default:
		// Batch-level shed or failure (429/503/5xx): the singleton path owns
		// retry and failover policy, so every item rides it.
		return nil, fmt.Errorf("backend %s: batch status %s", b.base, resp.Status)
	}
	// Envelope integrity mirrors the singleton attempt: wrong is always
	// fatal, missing only under RequireDigest.
	if cerr := integrity.Check(resp.Header.Get(integrity.Header), data); cerr != nil {
		if !errors.Is(cerr, integrity.ErrMissing) || f.cfg.RequireDigest {
			f.integrityFails.Add(1)
			b.obsIntegrity.Inc()
			return nil, fmt.Errorf("backend %s: batch envelope: %w", b.base, cerr)
		}
	}
	var wire batchWireResponse
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("backend %s: decoding batch envelope: %w", b.base, err)
	}
	if len(wire.Items) != len(g.items) {
		return nil, fmt.Errorf("backend %s: batch answered %d items for %d requests", b.base, len(wire.Items), len(g.items))
	}
	mode := resp.Header.Get("X-Brownout-Mode")
	if mode != "" {
		if m, perr := strconv.Atoi(mode); perr == nil && m >= 0 {
			b.mode.Store(int64(m))
		}
	}

	out := make([]*Result, len(g.items))
	for i, item := range wire.Items {
		// Reconstruct the singleton wire body (the envelope strips the
		// trailing newline) and hold it to the per-item digest. Unlike the
		// envelope's header, a missing item digest is never tolerated — it is
		// part of the batch contract, not an optional extra.
		wireBody := make([]byte, 0, len(item.Body)+1)
		wireBody = append(wireBody, item.Body...)
		wireBody = append(wireBody, '\n')
		if cerr := integrity.Check(item.Digest, wireBody); cerr != nil {
			f.integrityFails.Add(1)
			b.obsIntegrity.Inc()
			f.logger.Printf("backend %s: batch item %d: %v; item falls back to singleton dispatch", b.base, i, cerr)
			continue
		}
		if !deliverableStatus(item.Status) {
			continue
		}
		h := http.Header{}
		h.Set("Content-Type", "application/json")
		h.Set(integrity.Header, item.Digest)
		if item.Cache != "" {
			h.Set("X-Cache", item.Cache)
		}
		if mode != "" {
			h.Set("X-Brownout-Mode", mode)
		}
		out[i] = &Result{Status: item.Status, Header: h, Body: wireBody, Backend: b.base}
	}
	return out, nil
}

// shutdown fails every queued (not yet flushed) item and stops the window
// timers. In-flight flushes are aborted by the front's hardStop; Close waits
// on the batcher's WaitGroup afterwards.
func (ba *batcher) shutdown() {
	ba.mu.Lock()
	ba.closed = true
	groups := ba.groups
	ba.groups = map[string]*batchGroup{}
	ba.mu.Unlock()
	for _, g := range groups {
		g.timer.Stop()
		for _, it := range g.items {
			it.err = errors.New("fleet: front closing")
			close(it.done)
		}
	}
}
