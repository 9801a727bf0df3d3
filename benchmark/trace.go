package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"symbios/internal/fleet"
	"symbios/internal/integrity"
	"symbios/internal/obs"
	"symbios/internal/resilience"
)

// How a traced run divides its -seconds budget. The open-loop window gives
// the figures that depend on concurrency (queue wait, CPU split, hedges);
// the closed-loop passes give the ones that must add up; the saturation
// phase gives the capacity the fixed rates are a fraction of.
const (
	traceLoadShare   = 0.30
	tracePassesShare = 0.50
	traceSatShare    = 0.10
	traceRounds      = 3
)

// mixedMissEvery is the traced mixed stream's blend: one miss per this
// many requests, the 200:2 ratio of the open-loop mixed workload.
const mixedMissEvery = 101

// budgetTolerancePct bounds, as a share of the client mean through the
// front, how negative any part of the traced budget may come out before
// the attribution is declared broken.
const budgetTolerancePct = 10

// newInprocFront builds a fleet.Front configured exactly as cmd/sosfront
// configures it when given no flags but -backends — the same values, copied
// from its flag defaults — so that timing Dispatch in this process stands
// for timing it inside the binary.
func newInprocFront(backends []string, rt http.RoundTripper) (*fleet.Front, error) {
	return fleet.New(fleet.Config{
		Backends:       backends,
		Replicas:       2,
		VNodes:         64,
		DeadlineDef:    5 * time.Second,
		DeadlineMax:    30 * time.Second,
		HedgeQuantile:  0.95,
		HedgeMin:       20 * time.Millisecond,
		HedgeMax:       2 * time.Second,
		HedgeWarmup:    20,
		AttemptTimeout: 10 * time.Second,
		FailoverBase:   10 * time.Millisecond,
		FailoverMax:    250 * time.Millisecond,
		RequireDigest:  true,
		Divergence: fleet.DivergenceConfig{
			CompareHedges:   true,
			AuditRate:       0.05,
			Seed:            1,
			QuarantineAfter: 3,
			ReadmitAfter:    2,
		},
		Health:   fleet.HealthConfig{Interval: 500 * time.Millisecond, EjectAfter: 3, ReadmitAfter: 2},
		Breaker:  resilience.BreakerConfig{Window: 16, MinSamples: 4, ErrorRate: 0.5, Cooldown: 2 * time.Second, Probes: 2},
		Budget:   resilience.BudgetConfig{Ratio: 0.1, Cap: 10},
		Client:   &http.Client{Timeout: 30 * time.Second, Transport: rt},
		Registry: obs.NewRegistry(),
	})
}

// pass is one entry point of the traced run: the same request stream,
// closed-loop on one connection, through a different depth of the stack.
type pass struct {
	name  string
	do    func(req *request, id int) reply
	latUS []float64
	sosd  series // replicas' /metrics deltas, totalled over the pass's blocks
	recs  []opRecord
}

// stages is the replicas' account of the pass, per request it sent.
func (p *pass) stages() stageBudget {
	hits, misses := classCounts(p.recs)
	return sosdStages(p.sosd, hits, misses)
}

// classCounts returns how many hits and misses recs holds.
func classCounts(recs []opRecord) (hits, misses float64) {
	for _, rec := range recs {
		if rec.req.class == classHit {
			hits++
		} else {
			misses++
		}
	}
	return
}

// traceServing is the traced run of a serving workload. It never feeds the
// gated metrics: those come from runServing, with no recording anywhere.
func traceServing(sb *sandbox, bins binaries, opt options, wl workloadDef) (*runResult, error) {
	r := newServingRun(sb, bins, opt, wl)
	defer r.closeConns()
	if _, err := r.timedSetUps(1); err != nil {
		return nil, err
	}
	if err := r.fl.calibrateAdmin(); err != nil {
		return nil, err
	}
	res := newResult(opt, wl.name)
	m := res.Metrics
	m["build_s"] = bins.buildSec
	budget := time.Duration(opt.seconds) * time.Second
	share := func(f float64) time.Duration { return time.Duration(float64(budget) * f) }

	all, err := r.traceLoadWindow(m, share(traceLoadShare))
	if err != nil {
		return nil, err
	}
	passRecs, err := r.tracePasses(res, share(tracePassesShare))
	if err != nil {
		return nil, err
	}
	all = append(all, passRecs...)
	satRecs, err := r.saturate(m, share(traceSatShare))
	if err != nil {
		return nil, err
	}
	all = append(all, satRecs...)

	if m["sosd.batch16_item_ms"], err = batchProbe(r.fl.admin, r.fl.backendURLs[0], r.gen); err != nil {
		return nil, err
	}
	if err := kernelProbes(m); err != nil {
		return nil, err
	}
	front, back, err := r.fl.usage()
	if err != nil {
		return nil, err
	}
	m["sosfront.rss_mb"] = float64(front.rssBytes) / (1 << 20)
	m["sosd.rss_mb"] = float64(back.rssBytes) / (1 << 20) / float64(len(r.fl.backends))
	if err := r.finish(); err != nil {
		return nil, err
	}
	// The recorder's final flush happens on drain, so the file is sized
	// after the fleet has stopped.
	for _, p := range r.fl.ckptPaths {
		m["checkpoint.file_kb"] += fileKB(p)
	}

	sum := summarize(all)
	res.Attempted, res.Failed, res.Samples = sum.sent, sum.sent-sum.ok, sum.ok
	res.Failures = append(res.Failures, sum.failures...)
	return res, nil
}

// traceLoadWindow runs a warm-up and one open-loop window at the gated
// run's rates and reads every layer's counters around it.
func (r *servingRun) traceLoadWindow(m metricSet, dur time.Duration) ([]opRecord, error) {
	if err := r.warmUp(warmDur(dur)); err != nil {
		return nil, err
	}
	s0, err := r.fl.scrape()
	if err != nil {
		return nil, err
	}
	front0, back0, err := r.fl.usage()
	if err != nil {
		return nil, err
	}
	recs, err := r.window(dur, phaseMeasured)
	if err != nil {
		return nil, err
	}
	front1, back1, err := r.fl.usage()
	if err != nil {
		return nil, err
	}
	if err := r.fl.quiesce(); err != nil {
		return nil, err
	}
	s1, err := r.fl.scrape()
	if err != nil {
		return nil, err
	}
	d := r.fl.between(s0, s1)
	sum := summarize(recs)
	ok := float64(sum.ok)

	m["client.sent"] = float64(sum.sent)
	m["client.ok"] = ok
	m["client.failed"] = float64(sum.sent - sum.ok)
	m["client.degraded"] = float64(sum.degraded)
	m["client.late_p90_ms"] = percentile(sum.lateMS, 90)
	for _, class := range []string{classHit, classMiss} {
		m["client."+class+"_p50_ms"] = percentile(sum.classLatMS[class], 50)
		m["client."+class+"_slo_pct"] = 100 * safeDiv(float64(sum.classInSLO[class]), float64(sum.classSent[class]))
	}
	for _, p := range []float64{90, 99} {
		if supported(sum.ok, p) {
			m[fmt.Sprintf("client.p%v_ms", p)] = percentile(sum.latMS, p)
		}
	}
	// The tail is informational (it did not repeat within a tenth in
	// scratch), but it is still reported by the rule.
	if tail := highestSupported(sum.ok); tail > 0 {
		m["client.tail_pct"] = tail
		m["client.tail_ms"] = percentile(sum.latMS, tail)
	}
	m["wire.resp_bytes"] = sum.respBytes

	m["sosfront.cpu_us_per_req"] = safeDiv((front1.cpuSec-front0.cpuSec)*1e6, ok)
	m["sosd.cpu_us_per_req"] = safeDiv((back1.cpuSec-back0.cpuSec)*1e6, ok)
	m["fleet.attempts_per_req"] = safeDiv(d.front.family("fleet_backend_requests_total"), ok)
	m["fleet.hedges"] = d.front["fleet_hedges_total"]
	m["fleet.hedge_wins"] = d.front.family("fleet_hedge_wins_total")
	m["fleet.audits"] = d.front["fleet_audits_total"]
	m["fleet.coalesced"] = d.front["fleet_coalesced_total"]
	m["fleet.failovers"] = d.front.family("fleet_failovers_total")
	m["fleet.integrity_failures"] = d.front.family("fleet_integrity_failures_total")
	m["fleet.divergences"] = d.front.family("fleet_divergences_total")

	st := sosdStages(d.sosd, float64(sum.classSent[classHit]), float64(sum.classSent[classMiss]))
	m["sosd.load_http_us"] = st.httpUS
	m["sosd.load_queue_wait_us"] = st.queueWaitUS
	m["sosd.load_unattributed_us"] = st.unattributedUS
	m["sosd.cache_hit_ratio"] = safeDiv(d.sosd["sosd_cache_hits_total"], st.sosdRequests)
	m["cpu.serve_ns_per_sim_cycle"] = 1e9 * safeDiv(d.sosd[`sosd_stage_seconds_sum{stage="retry"}`], d.sosd["sim_cycles_total"])
	m["cpu.sim_cycles_per_req"] = safeDiv(d.sosd["sim_cycles_total"], ok)
	m["checkpoint.shards"] = s1.sosd["sosd_cache_shards"]
	return recs, nil
}

// stageBudget is the replicas' own account of a window, per request a
// client sent: what the one sosd request that client waited for spent in
// each pipeline stage.
type stageBudget struct {
	sosdRequests                                 float64 // schedule requests the replicas handled, duplicates included
	limiterUS, decodeUS, cacheUS, breakerUS      float64
	queueWaitUS, retryUS, httpUS, unattributedUS float64
}

// sosdStages turns a /metrics delta of both replicas into a per-client-
// request stage budget, given how many hits and misses the clients sent in
// the window. The replicas also serve requests no client waits for — a
// hedge's loser, a background audit: each is a second run of a request
// some client did send, on the other replica — so the histograms hold more
// requests than were sent. The front stages (limiter, decode, cache) cost
// the same for a duplicate as for the original, so their mean per sosd
// request is what a client's request paid. The evaluation stages (breaker,
// queue, retry) are taken as the mean per evaluation, weighted by the
// share of client requests that needed one. The queue stage's histogram
// spans the whole queued call, evaluation included, so queue wait is queue
// minus retry; unattributed is what the handler spent outside every stage
// (marshal, Recorder.Record and its flush, writing the response).
func sosdStages(d series, hits, misses float64) stageBudget {
	sum := func(stage string) float64 { return 1e6 * d[`sosd_stage_seconds_sum{stage="`+stage+`"}`] }
	n := d[`sosd_stage_seconds_count{stage="limiter"}`]
	evals := d[`sosd_stage_seconds_count{stage="retry"}`]
	missShare := safeDiv(misses, hits+misses)
	perEval := func(us float64) float64 { return safeDiv(us, evals) * missShare }
	b := stageBudget{
		sosdRequests: n,
		limiterUS:    safeDiv(sum("limiter"), n),
		decodeUS:     safeDiv(sum("decode"), n),
		cacheUS:      safeDiv(sum("cache"), n),
		breakerUS:    perEval(sum("breaker")),
		queueWaitUS:  perEval(sum("queue") - sum("retry")),
		retryUS:      perEval(sum("retry")),
	}
	staged := sum("limiter") + sum("decode") + sum("cache") + sum("breaker") + sum("queue")
	b.unattributedUS = safeDiv(1e6*d["sosd_http_request_seconds_sum"]-staged, n)
	b.httpUS = b.limiterUS + b.decodeUS + b.cacheUS + b.breakerUS + b.queueWaitUS + b.retryUS + b.unattributedUS
	return b
}

// tracePasses replays the workload's request stream closed-loop on one
// connection through four entry points, in alternating blocks so drift hits
// every pass alike:
//
//	front   the sosfront binary (client span only)
//	inproc  an in-process fleet.Front whose backend calls are recorded
//	plain   the same Front with nothing recorded (the tracing-overhead twin)
//	direct  straight to the replica the ring names
//
// and derives the blocking-path budget from the differences (see
// closeBudget). A budget with a part more negative than the tolerance is
// broken; since the parts are differences of means over different seeds, a
// noisy box can push one there once, so the passes are repeated once before
// the run is declared invalid.
func (r *servingRun) tracePasses(res *runResult, dur time.Duration) ([]opRecord, error) {
	var all []opRecord
	for attempt := 1; ; attempt++ {
		recs, bad, err := r.tracePassesOnce(res, dur)
		all = append(all, recs...)
		if err != nil {
			return nil, err
		}
		if bad == nil {
			return all, nil
		}
		if attempt == 2 {
			return nil, fmt.Errorf("traced budget is broken on two attempts: %w", bad)
		}
		res.note("%v; passes repeated", bad)
	}
}

// tracedUnit is the indivisible stretch of the closed-loop stream, as request
// classes: every block of every pass runs whole units, so all four passes see
// the same blend and their per-request means compare. hit is one hit; miss is
// one miss; mixed is mixedMissEvery-1 hits and one miss (the open-loop mixed
// workload's ratio).
func (r *servingRun) tracedUnit() []string {
	if len(r.wl.streams) == 1 {
		return []string{r.wl.streams[0].class}
	}
	unit := make([]string, mixedMissEvery)
	for i := range unit {
		unit[i] = classHit
	}
	unit[len(unit)-1] = classMiss
	return unit
}

// tracePassesOnce runs the passes and fills in the budget metrics. budget
// is non-nil when the attribution came out broken; err when the run itself
// failed.
func (r *servingRun) tracePassesOnce(res *runResult, dur time.Duration) (recs []opRecord, budget, err error) {
	m := res.Metrics
	tr := newTracer()
	st := &spanTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr}
	backends := r.fl.backendURLs[:]
	recorded, err := newInprocFront(backends, st)
	if err != nil {
		return nil, nil, err
	}
	plainRT := http.DefaultTransport.(*http.Transport).Clone()
	plain, err := newInprocFront(backends, plainRT)
	if err != nil {
		return nil, nil, err
	}
	recorded.Start()
	plain.Start()
	defer func() {
		recorded.Close()
		plain.Close()
		st.base.(*http.Transport).CloseIdleConnections()
		plainRT.CloseIdleConnections()
	}()
	ring, err := fleet.NewRing(backends, 64)
	if err != nil {
		return nil, nil, err
	}
	frontConn, directConn := newConn(), newConn()
	defer frontConn.CloseIdleConnections()
	defer directConn.CloseIdleConnections()

	rooted := func(name string, id int, fn func() reply) reply {
		root := tr.begin(name, -1, id)
		defer tr.end(root)
		return fn()
	}
	dispatch := func(f *fleet.Front, req *request) reply {
		out, err := f.Dispatch(context.Background(), req.body)
		if err != nil {
			return reply{err: err}
		}
		return reply{status: out.Status, cache: out.Header.Get("X-Cache"),
			digest: out.Header.Get(integrity.Header), backend: out.Backend, body: out.Body}
	}
	passes := []*pass{
		{name: "front", do: func(req *request, id int) reply {
			return rooted("client.front", id, func() reply { return post(frontConn, r.fl.frontURL, req.body) })
		}},
		{name: "inproc", do: func(req *request, id int) reply {
			root := tr.begin("client.inproc", -1, id)
			d := tr.begin("fleet.dispatch", root, id)
			scope := &dispatchScope{span: d, req: id}
			st.scope.Store(scope)
			rp := dispatch(recorded, req)
			scope.returned.Store(true)
			tr.end(d)
			// The front checks every backend answer inside Dispatch; the
			// same call on the same bytes, timed here, is what that costs.
			c := tr.begin("integrity.check", root, id)
			integrity.Check(rp.digest, rp.body)
			tr.end(c)
			tr.end(root)
			return rp
		}},
		{name: "plain", do: func(req *request, id int) reply { return dispatch(plain, req) }},
		{name: "direct", do: func(req *request, id int) reply {
			replica := ring.Lookup(fleet.ShardKey(req.body), 1)[0]
			return rooted("client.direct", id, func() reply { return post(directConn, replica, req.body) })
		}},
	}

	unit := r.tracedUnit()
	block := dur / time.Duration(traceRounds*len(passes))
	id := 0
	for round := 0; round < traceRounds; round++ {
		for _, p := range passes {
			before, err := r.fl.scrape()
			if err != nil {
				return nil, nil, err
			}
			for end := time.Now().Add(block); time.Now().Before(end); {
				for _, class := range unit {
					req := r.gen.next(class)
					t0 := time.Now()
					rp := p.do(req, id)
					lat := time.Since(t0)
					id++
					p.latUS = append(p.latUS, us(lat))
					rec := opRecord{req: req, rp: rp, t: timing{done: lat}}
					rec.bad = checkReply(req, &rec.rp, req.class, r.fl.hotAnswers)
					p.recs = append(p.recs, rec)
					// An audit or a hedge's loser outlives the answer that
					// caused it. After a miss that is a whole evaluation
					// still running: left alone it would slow the next
					// request down and be slowed by it, and the replicas'
					// per-evaluation mean would no longer be what a client
					// waited for. (After a hit it is a cache lookup.)
					if req.class == classMiss {
						if err := r.fl.quiesce(); err != nil {
							return nil, nil, err
						}
					}
				}
			}
			// The block closes only once the replicas are quiet, so
			// background work is booked to the pass that started it.
			if err := r.fl.quiesce(); err != nil {
				return nil, nil, err
			}
			after, err := r.fl.scrape()
			if err != nil {
				return nil, nil, err
			}
			if p.sosd == nil {
				p.sosd = series{}
			}
			p.sosd.add(r.fl.between(before, after).sosd)
		}
	}
	if err := r.fl.died(); err != nil {
		return nil, nil, err
	}

	spans := tr.snapshot()
	if err := writeJSONL(filepath.Join(r.sb.parent, fmt.Sprintf("trace-%s-%d.jsonl", r.wl.name, r.opt.seed)), spans); err != nil {
		return nil, nil, err
	}
	self := selfTimes(spans)
	var dispatchUS, dispatchSelfUS, checkUS []float64
	for i, s := range spans {
		switch s.Name {
		case "fleet.dispatch":
			dispatchUS = append(dispatchUS, float64(s.End-s.Start)/1e3)
			dispatchSelfUS = append(dispatchSelfUS, float64(self[i])/1e3)
		case "integrity.check":
			checkUS = append(checkUS, float64(s.End-s.Start)/1e3)
		}
	}

	front, inproc, plainP, direct := passes[0], passes[1], passes[2], passes[3]
	budget = closeBudget(m, budgetInputs{
		clientFront: mean(front.latUS), clientInproc: mean(inproc.latUS), clientDirect: mean(direct.latUS),
		dispatch: mean(dispatchUS), dispatchSelf: mean(dispatchSelfUS), check: mean(checkUS),
		front: front.stages(), inproc: inproc.stages(), direct: direct.stages(),
	})
	m["trace.overhead_pct"] = 100 * safeDiv(mean(inproc.latUS)-mean(plainP.latUS), mean(plainP.latUS))
	m["trace.spans"] = float64(len(spans))
	var sizes []string
	for _, p := range passes {
		recs = append(recs, p.recs...)
		sizes = append(sizes, fmt.Sprintf("%s %d", p.name, len(p.recs)))
	}
	res.note("traced passes, requests each: %s; spans in .bench_build/trace-%s-%d.jsonl", strings.Join(sizes, ", "), r.wl.name, r.opt.seed)
	return recs, budget, nil
}

// budgetInputs are the means the traced passes measured, in microseconds.
type budgetInputs struct {
	clientFront, clientInproc, clientDirect float64 // client-side mean per pass
	dispatch, dispatchSelf, check           float64 // in-process pass spans
	front, inproc, direct                   stageBudget
}

// closeBudget writes the blocking-path budget of one request through the
// front into m and returns an error when it is broken.
//
// Every pass asks about different seeds, so on a kernel-bound stream the
// passes' client means differ by several percent of a 100 ms evaluation —
// more than the whole front costs. Each pass's own replica time is
// therefore taken out before passes are compared: what is left of a pass
// (client mean minus the replicas' account of that same pass) is overhead
// outside sosd, which does not depend on the seed.
//
//	wire.attempt     in-process pass: union of Dispatch's blocking backend calls
//	wire.self        wire.attempt minus the replicas' handler time in that pass
//	dispatch_self    Dispatch minus its backend calls, minus the digest check
//	hop              overhead of the front pass minus overhead of the in-process
//	                 pass: what the binary adds around fleet.Front (its HTTP
//	                 server, the client<->front connection, process switches)
//	sosd stages      the replicas' account of the front pass
//
// Nothing outside the binary can time its interior, so hop is a residual
// and the parts sum to the client mean by construction. What can be
// checked is that the attribution is sane: no part may be negative by more
// than budgetTolerancePct of the client mean. (Counting hedge and audit
// duplicates as client requests, or the scrapes' own handler time as
// request time, both broke exactly this while the benchmark was written.)
func closeBudget(m metricSet, in budgetInputs) error {
	attempt := in.dispatch - in.dispatchSelf
	wireSelf := attempt - in.inproc.httpUS
	hop := (in.clientFront - in.front.httpUS) - (in.dispatch - in.inproc.httpUS)
	parts := []struct {
		name string
		us   float64
	}{
		{"sosfront.hop_us", hop},
		{"fleet.dispatch_self_us", in.dispatchSelf - in.check},
		{"integrity.check_us", in.check},
		{"wire.self_us", wireSelf},
		{"sosd.stage_limiter_us", in.front.limiterUS},
		{"sosd.stage_decode_us", in.front.decodeUS},
		{"sosd.stage_cache_us", in.front.cacheUS},
		{"sosd.stage_breaker_us", in.front.breakerUS},
		{"sosd.stage_queue_wait_us", in.front.queueWaitUS},
		{"sosd.stage_retry_us", in.front.retryUS},
		{"sosd.unattributed_us", in.front.unattributedUS},
	}
	m["trace.client_front_us"] = in.clientFront
	m["trace.client_inproc_us"] = in.clientInproc
	m["trace.client_direct_us"] = in.clientDirect
	m["wire.attempt_us"] = attempt
	m["wire.direct_self_us"] = in.clientDirect - in.direct.httpUS
	m["sosd.http_us"] = in.front.httpUS
	var broken []string
	for _, p := range parts {
		m[p.name] = p.us
		if p.us < -in.clientFront*budgetTolerancePct/100 {
			broken = append(broken, fmt.Sprintf("%s = %.1f us", p.name, p.us))
		}
	}
	// Two informational cross-readings. sum_pct takes the hop literally
	// (front pass's client mean minus the in-process Dispatch mean, replica
	// time left in) and sums the parts over the client mean: 100 means the
	// passes happened to do equal kernel work. wire_check_pct predicts the
	// direct pass's client mean from its replica time plus the wire cost
	// measured in the in-process pass.
	m["trace.sum_pct"] = 100 * safeDiv(in.clientFront+in.front.httpUS-in.inproc.httpUS, in.clientFront)
	m["trace.wire_check_pct"] = 100 * safeDiv(in.direct.httpUS+wireSelf, in.clientDirect)
	if len(broken) > 0 {
		return fmt.Errorf("traced budget has parts below -%d%% of the %.1f us client mean: %s",
			budgetTolerancePct, in.clientFront, strings.Join(broken, ", "))
	}
	return nil
}

// saturate drives the front closed-loop, unpaced, over the workload's two
// connections and reports answered requests per second: the capacity the
// fixed open-loop rates are a fraction of. Informational — it did not
// repeat within a tenth in scratch.
func (r *servingRun) saturate(m metricSet, dur time.Duration) ([]opRecord, error) {
	var (
		mu   sync.Mutex
		recs []opRecord
		wg   sync.WaitGroup
	)
	var conns []*http.Client // the workload's two connections, whichever streams own them
	for _, cs := range r.conns {
		conns = append(conns, cs...)
	}
	class := r.wl.streams[0].class
	start := time.Now()
	end := start.Add(dur)
	for _, c := range conns {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			defer r.sb.guard()
			for time.Now().Before(end) {
				mu.Lock()
				req := r.gen.next(class)
				mu.Unlock()
				rec := opRecord{req: req, rp: post(c, r.fl.frontURL, req.body)}
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := r.fl.died(); err != nil {
		return nil, err
	}
	ok := 0
	for i := range recs {
		if recs[i].bad = checkReply(recs[i].req, &recs[i].rp, class, r.fl.hotAnswers); recs[i].bad == nil {
			ok++
		}
	}
	m["client.sat_rps"] = float64(ok) / elapsed.Seconds()
	return recs, nil
}
