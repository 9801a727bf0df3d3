package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// admissionRate replaces sosd's 50 req/s admission default, which would
// shed the hit workload's 400 req/s. It is the one policy flag the
// benchmark moves; everything else runs at shipped defaults.
const admissionRate = "100000"

// fleetUnderTest is the system the serving workloads drive: one sosfront
// over two sosd replicas on loopback, each replica with a checkpoint-backed
// response cache (without -checkpoint sosd has no cache and every request
// is a miss).
type fleetUnderTest struct {
	front    *proc
	backends [2]*proc

	frontURL    string
	backendURLs [2]string
	ckptPaths   [2]string

	// admin carries preload, scrapes and health checks — never measured
	// load, which has its own connections.
	admin *http.Client

	// hotAnswers[i] is the verified answer to hot request i, byte-identical
	// on both replicas at preload time.
	hotAnswers [][]byte

	// What one scrape() and one idle() poll add to the replicas' own
	// sosd_http_request_seconds_sum, and the running total charged so far
	// (see calibrateAdmin and between).
	scrapeCostSec, statzCostSec, adminSec float64
}

// setupFleet is the set-up a user pays before the first request: spawn the
// three daemons, wait until each is ready, and preload the hot set on both
// replicas (so hedges and audits of hot requests hit too). Its duration is
// the setup_s metric; the binaries are built beforehand and are not part
// of it.
func setupFleet(sb *sandbox, bins binaries, hot []*request) (*fleetUnderTest, time.Duration, error) {
	t0 := time.Now()
	fl := &fleetUnderTest{admin: &http.Client{Timeout: 30 * time.Second}}
	// A directory of its own per fleet: a replica that found an earlier
	// fleet's checkpoint would resume its cache and start warm.
	dir, err := os.MkdirTemp(sb.dir, "fleet-")
	if err != nil {
		return nil, 0, err
	}
	for i := range fl.backends {
		fl.ckptPaths[i] = filepath.Join(dir, fmt.Sprintf("sosd%d.ckpt", i))
		p, err := sb.spawn(fmt.Sprintf("sosd%d", i), bins.sosd,
			"-addr", "127.0.0.1:0", "-checkpoint", fl.ckptPaths[i],
			"-rate", admissionRate, "-burst", admissionRate)
		if err != nil {
			return nil, 0, err
		}
		fl.backends[i] = p
	}
	for i, p := range fl.backends {
		addr, err := p.awaitAddr(15 * time.Second)
		if err != nil {
			return nil, 0, err
		}
		fl.backendURLs[i] = "http://" + addr
	}
	front, err := sb.spawn("sosfront", bins.sosfront,
		"-addr", "127.0.0.1:0", "-backends", strings.Join(fl.backendURLs[:], ","))
	if err != nil {
		return nil, 0, err
	}
	fl.front = front
	addr, err := front.awaitAddr(15 * time.Second)
	if err != nil {
		return nil, 0, err
	}
	fl.frontURL = "http://" + addr
	for _, base := range append([]string{fl.frontURL}, fl.backendURLs[:]...) {
		if err := fl.awaitReady(base, 15*time.Second); err != nil {
			return nil, 0, err
		}
	}
	if err := fl.preload(hot); err != nil {
		return nil, 0, err
	}
	return fl, time.Since(t0), nil
}

// awaitReady polls base/readyz until it answers 200.
func (fl *fleetUnderTest) awaitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if _, last = httpGet(fl.admin, base+"/readyz"); last == nil {
			return nil
		}
		if err := fl.died(); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready within %s: %v", base, timeout, last)
}

// preload asks every hot request of both replicas directly, the replicas in
// parallel, and keeps the answers as the byte-equality reference for every
// later hit. The two replicas must already agree byte for byte: that is
// the determinism contract the whole fleet tier stands on.
func (fl *fleetUnderTest) preload(hot []*request) error {
	var (
		answers [2][][]byte
		errs    [2]error
		wg      sync.WaitGroup
	)
	for b := range fl.backendURLs {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for _, req := range hot {
				rp := post(fl.admin, fl.backendURLs[b], req.body)
				// The preload itself is a miss on a fresh replica.
				if err := checkReply(req, &rp, "miss", nil); err != nil {
					errs[b] = fmt.Errorf("preload %s at replica %d: %w", req.body, b, err)
					return
				}
				answers[b] = append(answers[b], rp.body)
			}
		}(b)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}
	for i := range hot {
		if !bytes.Equal(answers[0][i], answers[1][i]) {
			return fmt.Errorf("replicas disagree on %s:\n%s\n%s", hot[i].body, answers[0][i], answers[1][i])
		}
	}
	fl.hotAnswers = answers[0]
	return nil
}

// procs lists the daemons, front first.
func (fl *fleetUnderTest) procs() []*proc {
	return []*proc{fl.front, fl.backends[0], fl.backends[1]}
}

// died reports the first daemon that exited without being asked to.
func (fl *fleetUnderTest) died() error {
	for _, p := range fl.procs() {
		if p == nil {
			continue
		}
		if err := p.died(); err != nil {
			return err
		}
	}
	return nil
}

// stop shuts the fleet down front first (so no relay is cut mid-flight) and
// requires every daemon's clean drain.
func (fl *fleetUnderTest) stop() error {
	var errs []error
	for _, p := range fl.procs() {
		errs = append(errs, p.stop(20*time.Second))
	}
	fl.admin.CloseIdleConnections()
	return errors.Join(errs...)
}

// usage reads CPU and RSS of the front and of the two replicas (summed).
func (fl *fleetUnderTest) usage() (front, backends procUsage, err error) {
	front, err = readProcUsage(fl.front.cmd.Process.Pid)
	if err != nil {
		return
	}
	for _, p := range fl.backends {
		u, uerr := readProcUsage(p.cmd.Process.Pid)
		if uerr != nil {
			return front, backends, uerr
		}
		backends.cpuSec += u.cpuSec
		backends.rssBytes += u.rssBytes
	}
	return
}

// fleetScrape is one reading of every counter surface the fleet exposes.
type fleetScrape struct {
	front series // sosfront /metrics
	sosd  series // both replicas' /metrics, summed
	// adminSec is the handler time the benchmark's own admin requests had
	// cost the replicas when this reading was taken (see between).
	adminSec float64
}

// scrape reads /metrics on all three daemons.
func (fl *fleetUnderTest) scrape() (fleetScrape, error) {
	front, err := scrapeMetrics(fl.admin, fl.frontURL)
	if err != nil {
		return fleetScrape{}, err
	}
	sosd := series{}
	for _, base := range fl.backendURLs {
		s, err := scrapeMetrics(fl.admin, base)
		if err != nil {
			return fleetScrape{}, err
		}
		sosd.add(s)
	}
	// A handler's own duration is observed after it has rendered, so this
	// scrape's cost shows up in the next reading, not in this one.
	out := fleetScrape{front: front, sosd: sosd, adminSec: fl.adminSec}
	fl.adminSec += fl.scrapeCostSec
	return out, nil
}

// idle reports whether neither replica has a request queued or running.
func (fl *fleetUnderTest) idle() (bool, error) {
	busy := 0
	for _, base := range fl.backendURLs {
		var ss sosdStatz
		if err := getJSON(fl.admin, base+"/statz", &ss); err != nil {
			return false, err
		}
		busy += ss.Queue.Depth
	}
	fl.adminSec += fl.statzCostSec
	return busy == 0, nil
}

// quiesce waits until the replicas have gone quiet — the front's background
// audits and drained hedge losers included. It wants two idle readings in a
// row: the first may land between an audit's answer and its launch, or
// between a straggler leaving the queue and its handler recording its own
// duration.
func (fl *fleetUnderTest) quiesce() error {
	calm := 0
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(500 * time.Microsecond) {
		idle, err := fl.idle()
		if err != nil {
			return err
		}
		if !idle {
			calm = 0
		} else if calm++; calm == 2 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas still busy 10 s after the last request")
		}
	}
}

// calibrateAdmin measures what the benchmark's own admin requests cost the
// replicas. sosd times every HTTP request it serves into one histogram,
// /metrics and /statz included, and rendering /metrics takes milliseconds —
// as much as dozens of cache hits. Two back-to-back scrapes differ by
// exactly the first one's cost; a run of /statz polls between two scrapes
// gives a poll's.
func (fl *fleetUnderTest) calibrateAdmin() error {
	httpSum := func(a, b fleetScrape) float64 { return b.sub(a).sosd["sosd_http_request_seconds_sum"] }
	var costs []float64
	prev, err := fl.scrape()
	for i := 0; i < 5 && err == nil; i++ {
		var cur fleetScrape
		if cur, err = fl.scrape(); err == nil {
			costs = append(costs, httpSum(prev, cur))
			prev = cur
		}
	}
	if err != nil {
		return err
	}
	fl.scrapeCostSec = median(costs)
	const polls = 20
	for i := 0; i < polls; i++ {
		if _, err := fl.idle(); err != nil {
			return err
		}
	}
	cur, err := fl.scrape()
	if err != nil {
		return err
	}
	fl.statzCostSec = max(0, (httpSum(prev, cur)-fl.scrapeCostSec)/polls)
	return nil
}

// between returns what happened from the scrape that opened a window to
// the one that closed it, less the handler time of the benchmark's own
// admin requests inside it.
func (fl *fleetUnderTest) between(before, after fleetScrape) fleetScrape {
	d := after.sub(before)
	d.sosd["sosd_http_request_seconds_sum"] -= after.adminSec - before.adminSec
	return d
}

func (after fleetScrape) sub(before fleetScrape) fleetScrape {
	return fleetScrape{front: after.front.sub(before.front), sosd: after.sosd.sub(before.sosd)}
}

// frontStatz and sosdStatz are the /statz fields the validity check reads.
type frontStatz struct {
	Backends []struct {
		Backend     string `json:"backend"`
		Healthy     bool   `json:"healthy"`
		Quarantined bool   `json:"quarantined"`
	} `json:"backends"`
	IntegrityFailures uint64 `json:"integrity_failures"`
	Divergences       uint64 `json:"divergences"`
}

type sosdStatz struct {
	Limiter struct {
		Shed uint64 `json:"shed"`
	} `json:"limiter"`
	Queue struct {
		Rejected   uint64 `json:"rejected"`
		Overloaded uint64 `json:"overloaded"`
		Depth      int    `json:"depth"`
	} `json:"queue"`
	Brownout struct {
		StepDowns uint64 `json:"step_downs"`
	} `json:"brownout"`
	Cache struct {
		Shards int `json:"shards"`
	} `json:"cache"`
}

// checkHealthy is the after-window validity gate. A fleet that shed load,
// stepped down its brownout ladder, lost a backend or saw an integrity or
// divergence event did not run the workload as designed: the run is
// invalid, not slow.
func (fl *fleetUnderTest) checkHealthy() error {
	if err := fl.died(); err != nil {
		return err
	}
	var fs frontStatz
	if err := getJSON(fl.admin, fl.frontURL+"/statz", &fs); err != nil {
		return err
	}
	var errs []error
	if fs.IntegrityFailures != 0 || fs.Divergences != 0 {
		errs = append(errs, fmt.Errorf("front saw %d integrity failures, %d divergences",
			fs.IntegrityFailures, fs.Divergences))
	}
	if len(fs.Backends) != len(fl.backends) {
		errs = append(errs, fmt.Errorf("front reports %d backends, want %d", len(fs.Backends), len(fl.backends)))
	}
	for _, b := range fs.Backends {
		if !b.Healthy || b.Quarantined {
			errs = append(errs, fmt.Errorf("backend %s healthy=%v quarantined=%v", b.Backend, b.Healthy, b.Quarantined))
		}
	}
	for _, base := range fl.backendURLs {
		var ss sosdStatz
		if err := getJSON(fl.admin, base+"/statz", &ss); err != nil {
			return err
		}
		if shed := ss.Limiter.Shed + ss.Queue.Rejected + ss.Queue.Overloaded; shed != 0 || ss.Brownout.StepDowns != 0 {
			errs = append(errs, fmt.Errorf("replica %s shed %d requests, brownout stepped down %d times",
				base, shed, ss.Brownout.StepDowns))
		}
	}
	return errors.Join(errs...)
}

// otherReplica returns the replica URL that is not answered (the
// X-Fleet-Backend of a relayed reply).
func (fl *fleetUnderTest) otherReplica(answered string) string {
	if answered == fl.backendURLs[0] {
		return fl.backendURLs[1]
	}
	return fl.backendURLs[0]
}
