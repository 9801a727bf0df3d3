package queueing

import (
	"slices"

	"symbios/internal/core"
	"symbios/internal/counters"
	"symbios/internal/rng"
	"symbios/internal/schedule"
)

// Each scheduler is a pure transition function, step, over what happens at
// a slice boundary. drive owns the core, the clock, the jobs and the
// context, turns each slice into an event and runs the slice the step asks
// for. A test can thus walk every event order without a core; DESIGN §14
// tabulates the SOS machine and the rules its explorer checks.

// sliceEvent is what drive reports at a slice boundary: the jobs admitted
// there (ascending ids), the jobs that completed in the slice just run, and
// that slice's counter delta.
type sliceEvent struct {
	admitted, departed []int
	delta              counters.Set
}

// sliceKind is why a slice runs what it runs.
type sliceKind uint8

const (
	idleSlice     sliceKind = iota // nothing is resident: the core runs empty
	noChoiceSlice                  // every resident job fits: nothing to choose
	sampleSlice                    // a slice of a candidate's rotation
	symbiosSlice                   // a slice of the schedule in force (naive: its round robin)
)

// acts is what one step asks of drive: run these job ids, in context order,
// for one slice (none: idle). The rest says what the step did, for the
// run's tallies: shrunk, a sample phase began with the backlog-reduced
// candidate count; abandoned, a jobmix change discarded a sample phase's
// partial samples; picked, a sample phase ended and symbios began for
// interval cycles.
type acts struct {
	run                       []int
	kind                      sliceKind
	shrunk, abandoned, picked bool
	interval                  uint64
}

// kind classifies a slice over x resident jobs on y contexts; SOS tells a
// contended slice's sampling from its symbios.
func kind(x, y int) sliceKind {
	switch {
	case x == 0:
		return idleSlice
	case x <= y:
		return noChoiceSlice
	}
	return symbiosSlice
}

// naiveState is the control scheduler: the resident jobs in a round-robin
// queue, in arrival order, run contexts at a time.
type naiveState struct {
	contexts int
	rr       []int
}

func (s naiveState) step(e sliceEvent) (naiveState, acts) {
	rr := append(without(s.rr, e.departed), e.admitted...)
	a := acts{kind: kind(len(rr), s.contexts)}
	y := min(s.contexts, len(rr))
	a.run = rr[:y:y]
	s.rr = append(slices.Clone(rr[y:]), a.run...)
	return s, a
}

// sosState is everything SOS decides by. While sampling, cands[:len(samples)]
// are measured and cands[len(samples)] is in its rotation with rotLeft
// slices to go; rotLeft zero means the next contended slice starts the next
// rotation, drawing the candidates first when cands is nil. In symbios,
// timer counts down the interval in force. running and queue rotate the
// schedule in force, swap-all, FIFO.
type sosState struct {
	contexts       int // fixed for the run, as are slice and opt
	slice          uint64
	opt            SOSOptions
	jobs           []int // resident job ids, ascending
	rs             rng.Stream
	sampling       bool
	cands          []schedule.Schedule
	samples        []core.Sample
	rotLeft        int
	rot            counters.Set // the rotation's counters so far
	ipcs           []float64    // and its per-slice IPCs
	prevKey        string       // canonical key of the previous pick
	backoff, timer uint64       // the symbiosis interval in force, and what is left of it
	running, queue []int
	last           sliceKind // the kind of slice the next event reports on
}

func newSOS(contexts int, slice uint64, opt SOSOptions) sosState {
	return sosState{
		contexts: contexts,
		slice:    slice,
		opt:      opt,
		rs:       *rng.New(opt.Seed),
		sampling: true,
		backoff:  opt.SymbiosInterval,
	}
}

// step is the transition function: it takes in the finished slice, then
// the jobmix change, then chooses the next slice.
func (s sosState) step(e sliceEvent) (sosState, acts) {
	var a acts
	if s.last == sampleSlice || s.last == symbiosSlice {
		s.running, s.queue = rotate(s.running, s.queue, e.departed, s.contexts)
	}
	switch {
	case len(e.admitted) > 0 || len(e.departed) > 0:
		// "It is always worthwhile resampling when a new job comes in", and
		// when one leaves: the jobmix changed, so the backoff resets too.
		a.abandoned = s.sampling && s.cands != nil
		s = s.resample()
		s.backoff = s.opt.SymbiosInterval
	case s.last == sampleSlice:
		s.rot = s.rot.Add(e.delta)
		s.ipcs = append(slices.Clip(s.ipcs), e.delta.IPC())
		if s.rotLeft--; s.rotLeft == 0 {
			res := core.RunResult{Cycles: s.rot.Cycles, Counters: s.rot, SliceIPCs: s.ipcs}
			s.samples = append(slices.Clip(s.samples), core.NewSample(s.cands[len(s.samples)], res))
		}
	case s.last == symbiosSlice && s.timer <= s.slice:
		// The timer: resample, keeping the interval for a confirming pick
		// to double.
		s = s.resample()
	case s.last == symbiosSlice:
		s.timer -= s.slice
	}
	s.jobs = append(without(s.jobs, e.departed), e.admitted...)

	switch a.kind = kind(len(s.jobs), s.contexts); a.kind {
	case noChoiceSlice:
		a.run = s.jobs
	case symbiosSlice:
		if s.sampling && s.rotLeft == 0 {
			s = s.nextRotation(&a)
		}
		if s.sampling {
			a.kind = sampleSlice
		}
		a.run = s.running
	}
	s.last = a.kind
	return s, a
}

// resample starts a new sample phase, discarding any partial samples.
func (s sosState) resample() sosState {
	s.sampling, s.cands, s.samples, s.rotLeft = true, nil, nil, 0
	return s
}

// nextRotation starts the next candidate's rotation, drawing the phase's
// candidates first, or, when every candidate is measured, picks the best
// and enters symbios: a pick that confirms the previous one doubles the
// interval, any other restores the default.
func (s sosState) nextRotation(a *acts) sosState {
	x, y, opt := len(s.jobs), s.contexts, s.opt
	if s.cands == nil {
		n := opt.Samples
		if opt.BacklogFactor > 0 && float64(x) > opt.BacklogFactor*float64(y) {
			n = opt.BacklogSamples
			if n <= 0 {
				n = 2
			}
			n = min(n, opt.Samples)
			a.shrunk = true
		}
		rs := s.rs
		s.cands = schedule.Sample(&rs, x, y, y, n)
		s.rs = rs
	}
	var sched schedule.Schedule
	if len(s.samples) < len(s.cands) {
		sched = s.cands[len(s.samples)]
		s.rotLeft = sched.CycleSlices()
		s.rot, s.ipcs = counters.Set{}, nil
	} else {
		sched = s.samples[core.Pick(s.samples, opt.Predictor)].Sched
		if key := sched.Canonical(); key == s.prevKey {
			s.backoff *= 2
		} else {
			s.backoff = opt.SymbiosInterval
			s.prevKey = key
		}
		s.timer = s.backoff
		s.sampling = false
		a.picked, a.interval = true, s.backoff
	}
	order := make([]int, len(sched.Order))
	for i, t := range sched.Order {
		order[i] = s.jobs[t]
	}
	s.running, s.queue = order[:sched.Y:sched.Y], order[sched.Y:]
	return s
}

// rotate retires the running set to the queue's tail, drops the departed,
// and refills the running set from the queue's head.
func rotate(running, queue, departed []int, y int) ([]int, []int) {
	q := without(append(slices.Clip(queue), running...), departed)
	n := min(y, len(q))
	return q[:n:n], q[n:]
}

// without returns a new slice of ids less those in gone.
func without(ids, gone []int) []int {
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if !slices.Contains(gone, id) {
			out = append(out, id)
		}
	}
	return out
}
