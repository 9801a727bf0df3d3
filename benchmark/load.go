package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/rng"
)

// Request classes. The class is what X-Cache must say about the answer.
const (
	classHit  = "hit"
	classMiss = "miss"
)

// Hash salts, one per random stream, so no two streams of a run coincide.
const (
	saltHotSeed  = 0xbe01 // seeds of the hot (preloaded) set
	saltMissSeed = 0xbe02 // seeds of the all-distinct miss requests
	saltArrivals = 0xbe03 // Poisson gaps
	saltHotPick  = 0xbe04 // which hot request a hit asks for
)

// hotMixes are the jobmixes of the hot set, kept small and cheap (SMT 2 and
// 3). Every miss asks about missMix: one jobmix, so that the misses of a
// window cost the same and their latencies form one mode a quantile can sit
// in (three jobmixes cost 70, 96 and 105 ms, and a quantile of a hundred
// samples landed between two of them, on a different side from seed to
// seed). The kernel's other widths are timed by the in-process probes
// (probeMixes).
var hotMixes = []string{"Jsb(4,2,2)", "Jsb(5,2,2)", "Jsb(6,3,3)"}

const missMix = "Jsb(6,3,3)"

// hotSeedsPerMix sizes the hot set: hotSeedsPerMix x len(hotMixes)
// fingerprints. Each costs a full rank evaluation per replica at preload,
// and set-up is timed three times per run, so the set is kept to what
// spreads over both ring shards rather than to a realistic cache size: the
// response cache is a map, and its hit cost does not depend on how full it
// is.
const hotSeedsPerMix = 4

// hotCatalogueSeed fixes the hot set. It is a catalogue, the same on every
// run, so that set-up (which preloads it) does identical work whatever the
// run seed and setup_s compares across runs; the run seed decides which
// entry each hit asks for, and when.
const hotCatalogueSeed = 0x5eed

// rankSamples is the sample-phase width every request asks for.
const rankSamples = 3

// request is one generated /v1/schedule body plus what its answer must say.
type request struct {
	class string
	mix   string
	seed  uint64
	body  []byte
	hot   int // index into the hot set, -1 for a miss
}

func newRequest(class, mix string, seed uint64, hot int) *request {
	return &request{
		class: class, mix: mix, seed: seed, hot: hot,
		body: []byte(fmt.Sprintf(`{"mix":%q,"seed":%d,"samples":%d}`, mix, seed, rankSamples)),
	}
}

// seedBits keeps generated seeds inside the range every JSON decoder
// round-trips exactly.
const seedBits = 1<<48 - 1

// hotSet returns the preloaded catalogue.
func hotSet() []*request {
	var out []*request
	for k := 0; k < hotSeedsPerMix; k++ {
		for _, mix := range hotMixes {
			s := rng.Hash2(hotCatalogueSeed, uint64(len(out)), saltHotSeed) & seedBits
			out = append(out, newRequest(classHit, mix, s, len(out)))
		}
	}
	return out
}

// generator hands out a run's requests. Every miss it ever produces — in
// warm-up, in the measured window, in any traced pass — has its own seed,
// so none can be answered from a cache an earlier phase filled.
type generator struct {
	seed   uint64
	hot    []*request
	pick   *rng.Stream
	misses uint64
}

func newGenerator(seed uint64) *generator {
	return &generator{seed: seed, hot: hotSet(), pick: rng.New(rng.Hash(seed, saltHotPick))}
}

// next returns the next request of class. Requests are generated before a
// window opens or from the one goroutine of a closed loop, so the sequence
// depends on the seed alone.
func (g *generator) next(class string) *request {
	if class == classHit {
		return g.hot[g.pick.Intn(len(g.hot))]
	}
	i := g.misses
	g.misses++
	s := rng.Hash2(g.seed, i, saltMissSeed) & seedBits
	return newRequest(classMiss, missMix, s, -1)
}

// poissonArrivals returns the due offsets of round(rate x window) arrivals
// of a Poisson stream over window, drawn from r. Given their number, the
// arrivals of a Poisson process are independent uniform draws over the
// window, so that is how they are drawn: the gaps keep the process's
// burstiness while every run of a workload sends the same number of
// requests (a free count would move cpu_ms_per_op and the mixed blend by
// +-10 % from seed to seed on its own). The offsets depend on the seed
// alone, never on how the system under test behaves: that is what makes
// the loop open.
func poissonArrivals(r *rng.Stream, rate float64, window time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	for i := range out {
		out[i] = time.Duration(r.Float64() * float64(window))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// clock is the time source of the load loops, replaceable by a fake in
// tests.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil blocks in nanosleep(2) rather than time.Sleep: once a process
// has network pollers, the Go runtime's timers ride epoll's millisecond
// timeout and overshoot by 0.5-1 ms (measured on the reference box), which
// is the size of a whole cache-hit answer. nanosleep overshoots by ~0.1 ms.
// It pins an OS thread per sleeping connection; the generator has two.
func (wallClock) SleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an EINTR wake-up just loops
	}
}

// timing is one operation's three instants, as offsets from the window
// start: when it was due, when a connection actually sent it, when its
// answer was complete.
type timing struct {
	due, sent, done time.Duration
}

// latency is measured from the due time, so the wait a stall imposes on
// the requests queued behind it is charged to the system, not hidden.
func (t timing) latency() time.Duration { return t.done - t.due }

// lateness is how far behind schedule the generator sent the request:
// timer overshoot plus the wait for a free connection.
func (t timing) lateness() time.Duration { return t.sent - t.due }

// runOpenLoop sends operation i at start+arrivals[i] over conns
// connections and returns each operation's timing. Each connection claims
// the next arrival in order, sleeps until it is due and performs it, so an
// arrival that finds every connection busy goes out the moment one frees
// up — late, and timed from when it was due. do(conn, i) performs
// operation i on connection conn; it must be safe for concurrent calls with
// distinct i.
func runOpenLoop(clk clock, start time.Time, arrivals []time.Duration, conns int, do func(conn, i int)) []timing {
	out := make([]timing, len(arrivals))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				due := arrivals[i]
				clk.SleepUntil(start.Add(due))
				sent := clk.Now().Sub(start)
				do(c, i)
				out[i] = timing{due: due, sent: sent, done: clk.Now().Sub(start)}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// reply is what came back for one request: the fields verification reads.
type reply struct {
	status  int
	cache   string // X-Cache
	digest  string // X-Content-Digest
	backend string // X-Fleet-Backend (empty when sosd answered directly)
	body    []byte
	err     error
}

// post sends body to base/v1/schedule and reads the whole answer.
func post(c *http.Client, base string, body []byte) reply {
	return postPath(c, base+"/v1/schedule", body)
}

func postPath(c *http.Client, url string, body []byte) reply {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	return reply{
		status:  resp.StatusCode,
		cache:   resp.Header.Get("X-Cache"),
		digest:  resp.Header.Get(integrity.Header),
		backend: resp.Header.Get("X-Fleet-Backend"),
		body:    data,
		err:     err,
	}
}

// answerEcho is the part of a schedule answer that must echo the request.
type answerEcho struct {
	Mix      string `json:"mix"`
	Seed     uint64 `json:"seed"`
	Mode     string `json:"mode"`
	Best     string `json:"best"`
	Degraded string `json:"degraded"`
}

// checkReply verifies one answer, off the clock: transport and status,
// the integrity digest over the exact bytes, the echoed request fields, no
// brownout degradation, the cache verdict expected of the class, and — for
// a hot request — byte equality with the preloaded reference.
func checkReply(req *request, rp *reply, wantCache string, hotAnswers [][]byte) error {
	if rp.err != nil {
		return fmt.Errorf("transport: %w", rp.err)
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	if err := integrity.Check(rp.digest, rp.body); err != nil {
		return err
	}
	var echo answerEcho
	if err := json.Unmarshal(rp.body, &echo); err != nil {
		return fmt.Errorf("answer is not JSON: %w", err)
	}
	if echo.Mix != req.mix || echo.Seed != req.seed || echo.Mode != "rank" || echo.Best == "" {
		return fmt.Errorf("answer %s does not echo request %s", bytes.TrimSpace(rp.body), req.body)
	}
	if echo.Degraded != "" {
		return fmt.Errorf("degraded answer (%s)", echo.Degraded)
	}
	if rp.cache != wantCache {
		return fmt.Errorf("X-Cache %q, want %q", rp.cache, wantCache)
	}
	if req.hot >= 0 && hotAnswers != nil && !bytes.Equal(rp.body, hotAnswers[req.hot]) {
		return fmt.Errorf("hot answer differs from the preloaded bytes:\n%s\n%s", rp.body, hotAnswers[req.hot])
	}
	return nil
}

// newConn returns an HTTP client that owns exactly one connection per
// host. A load stream of n connections is n of these.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}
