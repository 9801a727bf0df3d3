package main

// Fast unit tests of the benchmark's own arithmetic. None spawns a process
// or opens a socket; the end-to-end behaviour is exercised by running the
// benchmark itself.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/obs"
	"symbios/internal/rng"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of an empty sample must be 0")
	}
	// Exactly ten samples beyond the rank is the threshold.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{100, 90, true}, {99, 90, false}, {20, 50, true}, {19, 50, false}, {1000, 99, true}, {999, 99, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {120, 90}, {6000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// fakeClock advances only when told to: SleepUntil jumps forward, and the
// operation under test adds its own service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopChargesStallsToLatency(t *testing.T) {
	const msec = time.Millisecond
	start := time.Unix(1000, 0)
	arrivals := []time.Duration{0, 10 * msec, 20 * msec, 200 * msec}

	// One connection, 25 ms of service: the second and third arrivals find
	// it busy and go out late, yet are timed from when they were due.
	clk := &fakeClock{now: start}
	var order []int
	got := runOpenLoop(clk, start, arrivals, 1, func(conn, i int) {
		order = append(order, i)
		clk.advance(25 * msec)
	})
	want := []timing{
		{due: 0, sent: 0, done: 25 * msec},
		{due: 10 * msec, sent: 25 * msec, done: 50 * msec},
		{due: 20 * msec, sent: 50 * msec, done: 75 * msec},
		{due: 200 * msec, sent: 200 * msec, done: 225 * msec}, // backlog drained: on time again
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d: timing %+v, want %+v", i, got[i], want[i])
		}
	}
	if l := got[2].latency(); l != 55*msec {
		t.Errorf("op 2 latency = %v, want 55ms (from its due time, not its send time)", l)
	}
	if l := got[2].lateness(); l != 30*msec {
		t.Errorf("op 2 lateness = %v, want 30ms", l)
	}
	if got[3].lateness() != 0 {
		t.Errorf("op 3 lateness = %v, want 0", got[3].lateness())
	}
	for i, o := range order {
		if o != i {
			t.Fatalf("operations ran in order %v, want arrival order", order)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	const rate, window = 400.0, 5 * time.Second
	a := poissonArrivals(rng.New(42), rate, window)
	b := poissonArrivals(rng.New(42), rate, window)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
		if a[i] >= window || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d = %v out of order or past the window", i, a[i])
		}
	}
	if want := int(rate * window.Seconds()); len(a) != want {
		t.Errorf("%d arrivals, want exactly %d: the count must not vary with the seed", len(a), want)
	}
	// Poisson gaps have a coefficient of variation of 1; a paced stream
	// would have 0.
	var gaps []float64
	for i := 1; i < len(a); i++ {
		gaps = append(gaps, float64(a[i]-a[i-1]))
	}
	m, ss := mean(gaps), 0.0
	for _, g := range gaps {
		ss += (g - m) * (g - m)
	}
	if cv := math.Sqrt(ss/float64(len(gaps))) / m; cv < 0.9 || cv > 1.1 {
		t.Errorf("gap coefficient of variation %.2f, want about 1", cv)
	}
	if c := poissonArrivals(rng.New(43), rate, window); len(c) == len(a) && c[0] == a[0] {
		t.Error("a different seed gave the same arrivals")
	}
}

func TestGeneratorInputsFollowTheSeed(t *testing.T) {
	a, b := newGenerator(5), newGenerator(5)
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		ra, rb := a.next(classMiss), b.next(classMiss)
		if !bytes.Equal(ra.body, rb.body) {
			t.Fatalf("same seed, different miss %d: %s vs %s", i, ra.body, rb.body)
		}
		if seen[string(ra.body)] {
			t.Fatalf("miss %d repeats an earlier request: %s", i, ra.body)
		}
		seen[string(ra.body)] = true
		if ra.mix != missMix {
			t.Fatalf("miss %d uses %s, want %s", i, ra.mix, missMix)
		}
	}
	if len(a.hot) != hotSeedsPerMix*len(hotMixes) {
		t.Fatalf("hot set has %d requests", len(a.hot))
	}
	for i := 0; i < 100; i++ {
		ra, rb := a.next(classHit), b.next(classHit)
		if ra.hot != rb.hot || ra.hot < 0 || seen[string(ra.body)] {
			t.Fatalf("hit %d: hot index %d vs %d, or collides with a miss", i, ra.hot, rb.hot)
		}
	}
	c := newGenerator(6)
	if !bytes.Equal(c.hot[0].body, a.hot[0].body) {
		t.Error("the hot set is a fixed catalogue; it must not change with the seed")
	}
	if bytes.Equal(c.next(classMiss).body, newGenerator(5).next(classMiss).body) {
		t.Error("a different seed gave the same first miss")
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "req", Start: 0, End: 100, Parent: -1},
		{Name: "attempt", Start: 10, End: 30, Parent: 0},
		{Name: "hedge", Start: 20, End: 50, Parent: 0},      // overlaps the first: counted once
		{Name: "straggler", Start: 90, End: 120, Parent: 0}, // outlives the parent: clipped
		{Name: "inner", Start: 12, End: 28, Parent: 1},      // a grandchild only reduces its own parent
		{Name: "after", Start: 130, End: 140, Parent: 0},    // entirely outside: no effect
	}
	self := selfTimes(spans)
	want := []int64{50, 4, 30, 30, 16, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestTracerDropsOpenSpansAndRemapsParents(t *testing.T) {
	tr := newTracer()
	open := tr.begin("never-closed", -1, 0)
	root := tr.begin("req", -1, 1)
	child := tr.begin("attempt", root, 1)
	orphan := tr.begin("audit", open, 0)
	tr.end(child)
	tr.end(root)
	tr.end(orphan)
	tr.end(child) // closing twice keeps the first end
	got := tr.snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot has %d spans, want 3 closed ones", len(got))
	}
	if got[0].Name != "req" || got[1].Name != "attempt" || got[1].Parent != 0 {
		t.Errorf("parent not remapped: %+v", got)
	}
	if got[2].Name != "audit" || got[2].Parent != -1 {
		t.Errorf("child of a dropped span must become a root: %+v", got[2])
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeJSONL(path, got); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != 3 || !strings.Contains(string(data), `"name":"attempt"`) {
		t.Errorf("JSONL output wrong:\n%s", data)
	}
}

func TestMetricsDeltaFromExposition(t *testing.T) {
	reg := obs.NewRegistry()
	hits := reg.Counter("sosd_cache_hits_total", "hits")
	reqA := reg.Counter("fleet_backend_requests_total", "reqs", obs.L("backend", "http://a b:1"))
	reqB := reg.Counter("fleet_backend_requests_total", "reqs", obs.L("backend", "http://b:2"))
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("sosd_stage_seconds", "stage", nil, obs.L("stage", name))
	}
	limiter, decode, cache, breaker, queue, retry := stage("limiter"), stage("decode"), stage("cache"), stage("breaker"), stage("queue"), stage("retry")
	httpH := reg.Histogram("sosd_http_request_seconds", "http", nil)
	scrape := func() series {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := parseMetrics(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	hits.Add(3)
	reqA.Add(10)
	limiter.Observe(1)
	before := scrape()

	hits.Add(4)
	reqA.Add(5)
	reqB.Add(7)
	for i := 0; i < 4; i++ { // four requests: 2 us limiter, 10 us decode, ...
		limiter.Observe(2e-6)
		decode.Observe(10e-6)
		cache.Observe(3e-6)
		httpH.Observe(100e-6)
	}
	breaker.Observe(4e-6) // one of the four went on to be evaluated
	queue.Observe(60e-6)
	retry.Observe(50e-6)
	d := scrape().sub(before)

	if got := d["sosd_cache_hits_total"]; got != 4 {
		t.Errorf("cache hits delta = %v, want 4", got)
	}
	if got := d.family("fleet_backend_requests_total"); got != 12 {
		t.Errorf("backend requests family delta = %v, want 12", got)
	}
	if got := d[`fleet_backend_requests_total{backend="http://a b:1"}`]; got != 5 {
		t.Errorf("labelled series with a space in its value: delta = %v, want 5", got)
	}
	// The clients sent three hits and one miss; nothing was duplicated.
	st := sosdStages(d, 3, 1)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("requests", st.sosdRequests, 4)
	near("limiter", st.limiterUS, 2)
	near("decode", st.decodeUS, 10)
	near("cache", st.cacheUS, 3)
	near("breaker", st.breakerUS, 1)
	near("retry", st.retryUS, 12.5)
	near("queue wait", st.queueWaitUS, 2.5)
	near("http", st.httpUS, 100)
	near("unattributed", st.unattributedUS, 100-(2+10+3+1+15))

	// Now the front hedges the miss: the other replica evaluates it too.
	// The replicas handled five requests and two evaluations, but what one
	// client request waited for has not changed.
	limiter.Observe(2e-6)
	decode.Observe(10e-6)
	cache.Observe(3e-6)
	breaker.Observe(4e-6)
	queue.Observe(60e-6)
	retry.Observe(50e-6)
	httpH.Observe(100e-6)
	st = sosdStages(scrape().sub(before), 3, 1)
	near("requests with a duplicate", st.sosdRequests, 5)
	near("decode with a duplicate", st.decodeUS, 10)
	near("retry with a duplicate", st.retryUS, 12.5)
	near("queue wait with a duplicate", st.queueWaitUS, 2.5)
	near("breaker with a duplicate", st.breakerUS, 1)

	if _, err := parseMetrics([]byte("no_type_line 1\n")); err == nil {
		t.Error("an exposition obs.ParseText rejects must be rejected")
	}
}

func TestParseProcStat(t *testing.T) {
	// comm may hold spaces and parentheses; fields are counted from the
	// last ')'. utime=250 stime=50 ticks, rss=1000 pages.
	stat := "4242 (sosd (v2) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 12345 1000000 1000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	u, err := parseProcStat(stat, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if u.cpuSec != 3.0 || u.rssBytes != 4096*1000 {
		t.Errorf("usage = %+v, want 3.0 s and %d bytes", u, 4096*1000)
	}
	if _, err := parseProcStat("4242 sosd S 1", 4096); err == nil {
		t.Error("a stat line without a comm field must be an error")
	}
	if _, err := parseProcStat("4242 (sosd) S 1 2 3", 4096); err == nil {
		t.Error("a truncated stat line must be an error")
	}
	if self, err := readProcUsage(os.Getpid()); err != nil || self.rssBytes <= 0 {
		t.Errorf("reading this process: %+v, %v", self, err)
	}
}

func TestSweepGoldenCheck(t *testing.T) {
	golden := options{seed: goldenSeed}
	if err := checkSweep(golden, goldenTable3); err != nil {
		t.Fatalf("the committed golden fails its own check: %v", err)
	}
	drifted := bytes.Replace(goldenTable3, []byte(`"IPC": 2.3398`), []byte(`"IPC": 2.3399`), 1)
	if bytes.Equal(drifted, goldenTable3) {
		t.Fatal("test edit did not apply; the golden changed shape")
	}
	if err := checkSweep(golden, drifted); err == nil {
		t.Error("a one-digit drift in a simulated statistic must fail the golden seed")
	}
	// Another seed has no reference: the same bytes pass structurally...
	other := options{seed: goldenSeed + 1}
	if err := checkSweep(other, drifted); err != nil {
		t.Errorf("structural check rejected a well-formed table: %v", err)
	}
	// ...but a missing row, a repeated schedule or an impossible speedup do not.
	for name, bad := range map[string][]byte{
		"repeated schedule": bytes.Replace(goldenTable3, []byte(`"013_245"`), []byte(`"012_345"`), 1),
		"WS above contexts": bytes.Replace(goldenTable3, []byte(`"WS": 1.2427818072535062`), []byte(`"WS": 3.5`), 1),
		"not JSON":          []byte("{"),
		"no rows":           []byte(`{"table3": []}`),
	} {
		if err := checkSweep(other, bad); err == nil {
			t.Errorf("structural check accepted %s", name)
		}
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	match := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, g.Name, g.Unit, w.name, w.unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, g.Name, g.Better)
			}
			if bounded && !(g.Bound > 0 && g.Bound <= 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, g.Name, g.Bound)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd, true)
	match("per_layer", spec.PerLayer, perLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric, lower is better")
	}
	for _, w := range spec.Workloads {
		if _, ok := servingWorkloads[w.Name]; !ok && w.Name != "sweep" {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	if len(spec.Workloads) != len(servingWorkloads)+1 {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(servingWorkloads)+1)
	}
	for name, wl := range servingWorkloads {
		conns := 0
		for _, st := range wl.streams {
			conns += st.conns
		}
		if conns != 2 {
			t.Errorf("workload %s uses %d connections, want exactly 2", name, conns)
		}
	}
	if err := (metricSet{"p25_ms": 1, "p2S_ms": 2}).checkKnown(); err == nil {
		t.Error("a value under an undeclared name must be caught")
	}
}

func TestCheckReply(t *testing.T) {
	req := newRequest(classHit, "Jsb(4,2,2)", 9, 0)
	body := []byte(`{"mix":"Jsb(4,2,2)","mode":"rank","predictor":"Score","seed":9,"best":"01_23"}` + "\n")
	good := reply{status: 200, cache: "hit", digest: integrity.Digest(body), body: body}
	hot := [][]byte{body}
	if err := checkReply(req, &good, "hit", hot); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	mutate := func(f func(*reply)) error {
		rp := good
		f(&rp)
		return checkReply(req, &rp, "hit", hot)
	}
	restamp := func(rp *reply, b string) { rp.body = []byte(b); rp.digest = integrity.Digest(rp.body) }
	cases := map[string]func(*reply){
		"transport error": func(rp *reply) { rp.err = errors.New("reset") },
		"shed":            func(rp *reply) { rp.status = 429 },
		"flipped bit":     func(rp *reply) { rp.body = bytes.Replace(body, []byte("01_23"), []byte("01_32"), 1) },
		"missing digest":  func(rp *reply) { rp.digest = "" },
		"wrong cache":     func(rp *reply) { rp.cache = "miss" },
		"wrong seed": func(rp *reply) {
			restamp(rp, `{"mix":"Jsb(4,2,2)","mode":"rank","seed":8,"best":"01_23"}`+"\n")
		},
		"adaptive answered as something else": func(rp *reply) {
			restamp(rp, `{"mix":"Jsb(4,2,2)","mode":"adaptive","seed":9,"best":"01_23"}`+"\n")
		},
		"degraded": func(rp *reply) {
			restamp(rp, `{"mix":"Jsb(4,2,2)","mode":"rank","seed":9,"best":"01_23","degraded":"round-robin"}`+"\n")
		},
		"differs from preload": func(rp *reply) {
			restamp(rp, `{"mix":"Jsb(4,2,2)","mode":"rank","seed":9,"best":"02_13"}`+"\n")
		},
	}
	for name, f := range cases {
		if mutate(f) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	if _, _, v := judge(steady, scale(steady, 1.05), "lower", 0.10); v != verdictOK {
		t.Errorf("+5%% inside a 10%% bound: %s", v)
	}
	if worse, _, v := judge(steady, scale(steady, 1.2), "lower", 0.10); v != verdictRegressed || math.Abs(worse-0.2) > 1e-9 {
		t.Errorf("+20%% against a 10%% bound: %s (worse %v)", v, worse)
	}
	if _, _, v := judge(steady, scale(steady, 0.5), "lower", 0.10); v != verdictOK {
		t.Errorf("a 2x improvement: %s", v)
	}
	if _, _, v := judge(steady, scale(steady, 0.8), "higher", 0.10); v != verdictRegressed {
		t.Errorf("-20%% on a higher-is-better metric: %s", v)
	}
	noisy := []float64{1, 2, 3, 4, 5}
	if _, spread, v := judge(noisy, scale(noisy, 1.5), "lower", 0.10); v != verdictUnresolved || spread < 0.10 {
		t.Errorf("spread wider than the bound must be unresolved: %s (spread %v)", v, spread)
	}
	if _, _, v := judge(noisy, scale(noisy, 0.1), "lower", 0.10); v != verdictOK {
		t.Errorf("every candidate run better than every base run overrides the spread: %s", v)
	}
}

func TestCompareRefusesQuickAndFailedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rs ...runResult) string {
		path := filepath.Join(dir, name)
		for _, r := range rs {
			if err := appendJSONL(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	run := func(p25 float64) runResult {
		return runResult{Workload: "hit", Correct: true, Attempted: 10,
			Metrics: metricSet{"setup_s": 1.5, "p25_ms": p25, "cpu_ms_per_op": 0.7}}
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	base := write("base.jsonl", run(1.00), run(1.01), run(0.99))
	same := write("same.jsonl", run(1.01), run(1.00), run(1.02))
	slow := write("slow.jsonl", run(1.5), run(1.51), run(1.49))
	var out bytes.Buffer
	if code := runCompare(&out, spec, base, same); code != exitOK {
		t.Errorf("same code compared to itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, spec, base, slow); code != exitFailed || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 50%% slower candidate: exit %d\n%s", code, out.String())
	}
	quick := run(1)
	quick.Quick = true
	if _, err := readResults(write("quick.jsonl", quick)); err == nil {
		t.Error("a -quick record must be refused")
	}
	traced := run(1)
	traced.Trace = 1
	if rs, err := readResults(write("traced.jsonl", traced, run(1))); err != nil || len(rs) != 1 {
		t.Errorf("traced records must be skipped: %d runs, %v", len(rs), err)
	}
	failed := run(1)
	failed.Correct = false
	rs, _ := readResults(write("failed.jsonl", failed))
	if _, err := compareResults(spec, rs, rs); err == nil {
		t.Error("a run that failed verification must not be compared")
	}
}

func TestCloseBudget(t *testing.T) {
	// A 500 us request through the front: 50 us in sosd, 120 us on the
	// front<->replica wire, 70 us in the dispatcher (1 us of it the digest
	// check), the rest around the binary.
	stage := stageBudget{decodeUS: 30, cacheUS: 8, limiterUS: 1, unattributedUS: 11, httpUS: 50}
	in := budgetInputs{
		clientFront: 500, clientInproc: 245, clientDirect: 172,
		dispatch: 240, dispatchSelf: 70, check: 1,
		front: stage, inproc: stage, direct: stage,
	}
	m := metricSet{}
	if err := closeBudget(m, in); err != nil {
		t.Fatalf("a sane budget was rejected: %v", err)
	}
	want := map[string]float64{
		"wire.attempt_us": 170, "wire.self_us": 120, "wire.direct_self_us": 122,
		"fleet.dispatch_self_us": 69, "integrity.check_us": 1, "sosfront.hop_us": 260,
		"sosd.http_us": 50, "trace.sum_pct": 100,
	}
	for name, w := range want {
		if math.Abs(m[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], w)
		}
	}
	parts := m["sosfront.hop_us"] + m["fleet.dispatch_self_us"] + m["integrity.check_us"] + m["wire.self_us"] + m["sosd.http_us"]
	if math.Abs(parts-in.clientFront) > 1e-9 {
		t.Errorf("parts sum to %v, want the client mean %v", parts, in.clientFront)
	}
	if err := m.checkKnown(); err != nil {
		t.Error(err)
	}
	// The replicas' account of the in-process pass inflated by duplicate
	// work counted as client requests: the wire comes out negative.
	in.inproc.httpUS = 400
	if err := closeBudget(metricSet{}, in); err == nil || !strings.Contains(err.Error(), "wire.self_us") {
		t.Errorf("a budget with wire.self = -230 us of a 500 us request must be rejected, got %v", err)
	}
	// A kernel-bound stream: a few ms of noise on a 100 ms request is inside
	// the tolerance.
	miss := stageBudget{retryUS: 99_000, unattributedUS: 300, decodeUS: 40, httpUS: 99_340}
	noisy := budgetInputs{
		clientFront: 100_000, clientInproc: 97_000, clientDirect: 99_700,
		dispatch: 96_900, dispatchSelf: 110, check: 1,
		front: miss, inproc: stageBudget{httpUS: 99_000}, direct: miss,
	}
	if err := closeBudget(metricSet{}, noisy); err != nil {
		t.Errorf("wire.self of -2.2 ms on a 100 ms request is noise, not a broken budget: %v", err)
	}
}
