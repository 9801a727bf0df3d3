package queueing

import (
	"fmt"
	"slices"
	"testing"

	"symbios/internal/core"
	"symbios/internal/counters"
)

// The SOS machine's explorer: small systems (2 contexts, at most 4 jobs
// over a whole path) driven through every order of arrivals, departures
// and slices, with fake counter deltas and no core. After every step it
// checks the paper's Section 7 rules:
//
//  1. every arrival (every jobmix change) starts a new sample phase and
//     resets the backoff;
//  2. a resample that confirms the previous pick doubles the interval in
//     force, any other pick restores the default, and any jobmix change
//     resets it;
//  3. under the schedule in force (a candidate's rotation or the symbios
//     pick) every resident job runs within one rotation; across a switch of
//     schedule it sits out at most waitBound slices in a row;
//  4. a sample phase is abandoned only on a jobmix change, and the run
//     counts exactly the phases abandoned.
const (
	exploreContexts = 2
	exploreJobs     = 4 // job ids 0..3: each arrives at most once
	exploreSlice    = 1 // cycles per slice, so intervals count slices
	exploreInterval = 1 // the default symbiosis interval: one slice
)

// waitBound is the most slices in a row a resident job sits out across a
// switch of schedule (a jobmix change, the next candidate, a pick or a
// timer resample) when the rotation of the schedule in force takes
// rotation slices: one slice more than a rotation. A new schedule starts at
// its first tuple whatever ran last, so the tail of the old wait adds to
// the head of the new one. This is the tightest bound the walk shows:
// TestSOSExplorer requires it to be reached across a jobmix change.
func waitBound(rotation int) int { return rotation + 1 }

// rotation is how many slices the rotation of any schedule of x jobs over
// y contexts (swapping all y each slice) takes: x / gcd(x, y).
func rotation(x, y int) int {
	a, b := x, y
	for b != 0 {
		a, b = b, a%b
	}
	return x / a
}

// fakeDelta is what a slice running ids counts: each job contributes
// 1+id instructions, jobs of mixed parity add 3 more (they "get along"),
// and even ids are floating-point, so candidate schedules differ in IPC,
// in diversity and in balance.
func fakeDelta(ids []int) counters.Set {
	d := counters.Set{Cycles: exploreSlice}
	var even, odd uint64
	for _, id := range ids {
		d.Committed += uint64(1 + id)
		if id%2 == 0 {
			even++
		} else {
			odd++
		}
	}
	if even > 0 && odd > 0 {
		d.Committed += 3
	}
	d.FPCommitted, d.IntCommitted = even, odd
	return d
}

// probe is an sosState plus what an observer of drive would have tracked
// along the path that reached it: the slice just run, the next job id, and
// per resident job the slices it has sat out in a row and whether a jobmix
// change fell inside that wait.
type probe struct {
	s       sosState
	ran     []int
	next    int
	since   [exploreJobs]int
	crossed [exploreJobs]bool
	age     int // slices run under the schedule in force, this one included
}

// key identifies a probe for deduplication.
func (g probe) key() string {
	s := g.s
	return fmt.Sprintf("%v|%v|%d|%v|%v|%d|%v|%v|%v|%v|%d|%v|%v|%s|%d|%d|%v|%v|%v",
		g.ran, g.next, g.age, g.since, g.crossed,
		s.last, s.jobs, s.rs, s.sampling, s.cands, s.rotLeft, s.samples, s.ipcs, s.prevKey,
		s.backoff, s.timer, s.running, s.queue, s.rot)
}

// events lists what the driver can report at g's boundary: zero, one or
// two arrivals (while ids last), each with any subset of the jobs that ran
// departing, and the slice's fake delta.
func (g probe) events() []sliceEvent {
	var es []sliceEvent
	for k := 0; k <= 2 && g.next+k <= exploreJobs; k++ {
		var admitted []int
		for i := 0; i < k; i++ {
			admitted = append(admitted, g.next+i)
		}
		for mask := 0; mask < 1<<len(g.ran); mask++ {
			var departed []int
			for i, id := range g.ran {
				if mask&(1<<i) != 0 {
					departed = append(departed, id)
				}
			}
			es = append(es, sliceEvent{admitted: admitted, departed: departed, delta: fakeDelta(g.ran)})
		}
	}
	return es
}

// stats is what a walk reached, so a test can require that it reached the
// machine's every kind of step.
type stats map[string]int

// check steps g by e and reports the first rule the step breaks.
func (g probe) check(e sliceEvent, tally stats) (probe, error) {
	prev := g.s
	next, a := prev.step(e)
	h := probe{s: next, ran: a.run, next: g.next + len(e.admitted), since: g.since, crossed: g.crossed}
	base := prev.opt.SymbiosInterval
	changed := len(e.admitted) > 0 || len(e.departed) > 0
	x, y := len(next.jobs), prev.contexts

	// The slice asked for: the resident jobs, each once, as many as fit.
	want := kind(x, y)
	if want == symbiosSlice && next.sampling {
		want = sampleSlice
	}
	if a.kind != want {
		return h, fmt.Errorf("slice kind %d, want %d (x=%d sampling=%v)", a.kind, want, x, next.sampling)
	}
	if len(a.run) != min(x, y) {
		return h, fmt.Errorf("runs %v of %v on %d contexts", a.run, next.jobs, y)
	}
	for i, id := range a.run {
		if !slices.Contains(next.jobs, id) || slices.Contains(a.run[:i], id) {
			return h, fmt.Errorf("runs %v: not each a distinct resident of %v", a.run, next.jobs)
		}
	}

	// Rule 1: a jobmix change starts a new sample phase and resets the
	// backoff.
	fresh := next.sampling && len(next.samples) == 0 &&
		(x <= y && next.cands == nil || x > y && next.rotLeft == next.cands[0].CycleSlices())
	if changed {
		tally["jobmix changes"]++
		if !fresh {
			return h, fmt.Errorf("a jobmix change did not start a new sample phase")
		}
		if next.backoff != base {
			return h, fmt.Errorf("a jobmix change left the backoff at %d, want %d", next.backoff, base)
		}
	}
	// The timer: a symbios slice that used up the interval starts a new
	// sample phase with the interval kept; any other leaves symbios running.
	if prev.last == symbiosSlice && !changed {
		if prev.timer <= prev.slice {
			tally["timer resamples"]++
			if !fresh || next.backoff != prev.backoff {
				return h, fmt.Errorf("the timer ran out but no new sample phase began with the interval kept")
			}
		} else if next.sampling || next.timer != prev.timer-prev.slice {
			return h, fmt.Errorf("symbios ended with %d of its interval left", prev.timer)
		}
	}

	// Rule 2: a confirming pick doubles the interval in force, any other
	// restores the default.
	if a.picked {
		tally["picks"]++
		if changed {
			return h, fmt.Errorf("picked in the step of a jobmix change")
		}
		wantInterval := base
		if next.prevKey == prev.prevKey {
			tally["confirming picks"]++
			wantInterval = 2 * prev.backoff
		}
		if a.interval != wantInterval || next.backoff != wantInterval || next.timer != wantInterval {
			return h, fmt.Errorf("picked with interval %d (backoff %d, timer %d), want %d",
				a.interval, next.backoff, next.timer, wantInterval)
		}
	}

	// Rule 4: partial samples are discarded only on a jobmix change, and
	// every discard is counted.
	discarded := prev.sampling && prev.cands != nil && (next.cands == nil || &next.cands[0] != &prev.cands[0])
	if discarded != a.abandoned {
		return h, fmt.Errorf("discarded a sample phase: %v, counted: %v", discarded, a.abandoned)
	}
	if discarded {
		tally["phases abandoned"]++
		if !changed {
			return h, fmt.Errorf("a sample phase was abandoned without a jobmix change")
		}
	}

	// Rule 3: who sat out, for how long, and whether a jobmix change fell
	// inside the wait.
	began := a.picked || a.kind == sampleSlice && next.rotLeft == next.cands[len(next.samples)].CycleSlices()
	if h.age = g.age + 1; began || a.kind != sampleSlice && a.kind != symbiosSlice {
		h.age = 1
	}
	r := rotation(x, y)
	for _, id := range next.jobs {
		switch {
		case slices.Contains(a.run, id):
			h.since[id], h.crossed[id] = 0, false
			continue
		case slices.Contains(e.admitted, id):
			h.since[id], h.crossed[id] = 1, false
		default:
			h.since[id]++
			h.crossed[id] = h.crossed[id] || changed
		}
		if min(h.since[id], h.age) > r-1 {
			return h, fmt.Errorf("job %d sat out %d slices, %d of them under a schedule whose rotation is %d",
				id, h.since[id], h.age, r)
		}
		if h.since[id] > waitBound(r) {
			return h, fmt.Errorf("job %d sat out %d slices, rotation %d", id, h.since[id], r)
		}
		if h.crossed[id] {
			k := fmt.Sprintf("longest wait across a change, rotation %d", r)
			tally[k] = max(tally[k], h.since[id])
		}
	}
	for _, id := range e.departed {
		h.since[id], h.crossed[id] = 0, false
	}

	switch a.kind {
	case sampleSlice:
		tally["sample slices"]++
	case symbiosSlice:
		tally["symbios slices"]++
	}
	if a.shrunk {
		tally["shrunk phases"]++
	}
	return h, nil
}

// exploreOptions are the configurations walked: 2 and 3 candidates, and
// the backlog-aware variant that cuts 4 jobs to 1 candidate.
func exploreOptions() map[string]SOSOptions {
	o := func(samples int) SOSOptions {
		return SOSOptions{Samples: samples, Predictor: core.PredScore, SymbiosInterval: exploreInterval, Seed: 7}
	}
	backlog := o(3)
	backlog.BacklogFactor, backlog.BacklogSamples = 1.5, 1
	return map[string]SOSOptions{"samples2": o(2), "samples3": o(3), "backlog": backlog}
}

// explore walks every event order from an empty system to depth slices,
// skipping a probe already walked with at least as many slices to go, and
// fails at the first broken rule with the path that broke it.
func explore(t *testing.T, opt SOSOptions, depth int) stats {
	t.Helper()
	tally := stats{}
	seen := map[string]int{}
	var walk func(g probe, path []sliceEvent)
	walk = func(g probe, path []sliceEvent) {
		left := depth - len(path)
		k := g.key()
		if d, ok := seen[k]; ok && d >= left {
			return
		}
		seen[k] = left
		if left == 0 {
			return
		}
		for _, e := range g.events() {
			h, err := g.check(e, tally)
			p := append(slices.Clip(path), e)
			if err != nil {
				t.Fatalf("after %s: %v", pathString(p), err)
			}
			walk(h, p)
		}
	}
	walk(probe{s: newSOS(exploreContexts, exploreSlice, opt)}, nil)
	tally["probes"] = len(seen)
	return tally
}

// pathString renders a path as one "+arrivals -departures" group per
// boundary.
func pathString(path []sliceEvent) string {
	out := ""
	for i, e := range path {
		out += fmt.Sprintf("%d:+%v-%v ", i, e.admitted, e.departed)
	}
	return out
}

// TestSOSExplorer walks every event order sixteen slices deep under each
// configuration, and requires the walk to reach every kind of step and
// waitBound across a jobmix change.
func TestSOSExplorer(t *testing.T) {
	for name, opt := range exploreOptions() {
		tally := explore(t, opt, 16)
		t.Logf("%s: %v", name, tally)
		for _, k := range []string{"jobmix changes", "timer resamples", "picks", "confirming picks",
			"phases abandoned", "sample slices", "symbios slices"} {
			if tally[k] == 0 {
				t.Errorf("%s: the walk never reached %q", name, k)
			}
		}
		if name == "backlog" && tally["shrunk phases"] == 0 {
			t.Errorf("backlog: no shrunk phase")
		}
	}
	// waitBound is reached across a jobmix change, first at 7 slices: under
	// samples3, job 0 arrives, then jobs 1 and 2, five slices pass, and job
	// 3 arrives; job 2 has then sat out 3 slices against the new 2-slice
	// rotation.
	if got := explore(t, exploreOptions()["samples3"], 7)["longest wait across a change, rotation 2"]; got != waitBound(2) {
		t.Errorf("the longest wait across a jobmix change is %d slices against a 2-slice rotation; waitBound says %d", got, waitBound(2))
	}
}

// FuzzSOSStep feeds random event scripts through the same checks: the
// first byte picks the configuration, each later byte one of the events
// enabled at that point.
func FuzzSOSStep(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 4, 2, 0, 0, 5, 0, 0, 0, 7, 0, 0, 0, 0, 3, 0})
	f.Add([]byte{2, 5, 5, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	names := []string{"samples2", "samples3", "backlog"}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		name := names[int(script[0])%len(names)]
		g := probe{s: newSOS(exploreContexts, exploreSlice, exploreOptions()[name])}
		var path []sliceEvent
		for _, b := range script[1:] {
			es := g.events()
			e := es[int(b)%len(es)]
			path = append(path, e)
			var err error
			if g, err = g.check(e, stats{}); err != nil {
				t.Fatalf("%s, after %s: %v", name, pathString(path), err)
			}
		}
	})
}
