// Package queueing models the open system of Section 9: jobs enter with
// exponentially distributed interarrival times, run for exponentially
// distributed amounts of work, and leave; the system is sized by Little's
// law so that about N = 2 x SMT-level jobs are present in steady state.
//
// Two schedulers are compared on identical arrival sequences:
//
//   - the naive (random/control) scheduler simply coschedules jobs in
//     arrival order, round-robin, swapping the whole running set each
//     timeslice;
//   - SOS resamples schedules whenever a job arrives, departs, or the
//     symbiosis timer expires, picks the best by the Score predictor, and
//     runs it; when a resample confirms the previous prediction, the
//     symbiosis interval backs off exponentially, and a jobmix change
//     resets it.
//
// Both are pure step functions over one slice driver (step.go).
//
// The figure of merit is mean response time (completion minus arrival),
// which in a stable system is the right metric: throughput cannot exceed
// the arrival rate.
package queueing

import (
	"context"
	"fmt"
	"sort"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/cpu"
	"symbios/internal/rng"
	"symbios/internal/workload"
)

// Arrival is one scripted job arrival. Scripts are generated once and fed
// identically to both schedulers ("to model a random system but produce
// repeatable results, we fed the same jobs in the same order with the same
// arrival times to SOS and a control group scheduler").
type Arrival struct {
	At        uint64 // arrival cycle
	Benchmark string
	// Work is the job's length in instructions (cycles of nominal length
	// times the benchmark's solo IPC, per the paper's job generator).
	Work uint64
}

// Script is a reproducible arrival sequence.
type Script struct {
	Arrivals []Arrival
	// MeanJobCycles is T, the mean job duration in cycles.
	MeanJobCycles float64
	// MeanInterarrival is 1/lambda in cycles.
	MeanInterarrival float64
}

// singleThreadedBenchmarks lists the Table 1 jobs eligible for the random
// job generator.
var singleThreadedBenchmarks = []string{
	"FP", "MG", "WAVE", "SWIM", "SU2COR", "TURB3D", "GCC", "GO", "IS", "CG", "EP", "FT",
}

// GenerateScript builds an arrival script: interarrival times exponential
// with mean meanInterarrival, job lengths exponential with mean
// meanJobCycles (converted to instructions via each benchmark's solo IPC),
// until horizon cycles.
func GenerateScript(seed uint64, meanInterarrival, meanJobCycles float64, horizon uint64, soloIPC map[string]float64) (Script, error) {
	if meanInterarrival <= 0 || meanJobCycles <= 0 {
		return Script{}, fmt.Errorf("queueing: non-positive script parameters")
	}
	return GenerateScriptDist(seed, ExpDist(meanInterarrival), ExpDist(meanJobCycles), horizon, soloIPC)
}

// GenerateScriptDist builds an arrival script with arbitrary interarrival
// and job-size distributions (exponential or heavy-tailed bounded Pareto),
// deterministic in seed. Job sizes are drawn in cycles and converted to
// instructions via each benchmark's solo IPC, until horizon cycles.
func GenerateScriptDist(seed uint64, interarrival, jobCycles Dist, horizon uint64, soloIPC map[string]float64) (Script, error) {
	if err := interarrival.validate(); err != nil {
		return Script{}, err
	}
	if err := jobCycles.validate(); err != nil {
		return Script{}, err
	}
	r := rng.New(seed)
	s := Script{MeanJobCycles: jobCycles.Mean(), MeanInterarrival: interarrival.Mean()}
	now := 0.0
	for {
		now += interarrival.Draw(r)
		if uint64(now) >= horizon {
			break
		}
		bench := singleThreadedBenchmarks[r.Intn(len(singleThreadedBenchmarks))]
		ipc, ok := soloIPC[bench]
		if !ok || ipc <= 0 {
			return Script{}, fmt.Errorf("queueing: no solo IPC for %s", bench)
		}
		lenCycles := jobCycles.Draw(r)
		work := uint64(float64(lenCycles * ipc))
		if work < 1000 {
			work = 1000
		}
		s.Arrivals = append(s.Arrivals, Arrival{At: uint64(now), Benchmark: bench, Work: work})
	}
	return s, nil
}

// CalibrateSolo measures the solo IPC of every generator benchmark once,
// bounded by ctx.
func CalibrateSolo(ctx context.Context, cfg arch.Config, warmup, measure uint64) (map[string]float64, error) {
	out := make(map[string]float64, len(singleThreadedBenchmarks))
	for i, name := range singleThreadedBenchmarks {
		spec := workload.MustLookup(name)
		job, err := workload.NewJob(spec, i, rng.Hash2(0xCA11B, uint64(i), 7))
		if err != nil {
			return nil, err
		}
		rates, err := core.SoloRate(ctx, cfg, job, rng.Hash2(0xCA11B, uint64(i), 7), warmup, measure)
		if err != nil {
			return nil, err
		}
		out[name] = rates[0]
	}
	return out, nil
}

// activeJob is one job resident in the system.
type activeJob struct {
	job     *workload.Job
	arrival uint64
	work    uint64 // instructions to run
	done    uint64 // instructions completed
}

// Result reports one system run.
type Result struct {
	Admitted         int
	Completed        int
	MeanResponse     float64 // cycles
	MeanInSystem     float64 // time-averaged number of jobs present
	Cycles           uint64
	TotalCommitted   uint64
	LeftoverInSystem int

	// Response-time tail percentiles over completed jobs, in cycles (zero
	// when nothing completed). Under overload the mean is dominated by the
	// unbounded backlog; the tail is what an open-system SLO sees.
	ResponseP50  float64
	ResponseP99  float64
	ResponseP999 float64

	// SOS-only statistics (zero for the naive scheduler): completed sample
	// phases, symbios-phase entries (one per completed sample phase), and
	// the largest symbiosis interval the exponential backoff reached.
	SamplePhases   int
	SymbiosEntries int
	MaxBackoff     uint64

	// ShrunkPhases counts sample phases that ran with a reduced candidate
	// count because the backlog exceeded SOSOptions.BacklogFactor x contexts.
	ShrunkPhases int

	// Slices by kind. Every slice of the run is one of the four, so they
	// add up to Cycles / slice: idle with nothing resident, no choice with
	// every resident job fitting the contexts, sample measuring a candidate
	// schedule (SOS only), and symbios running the schedule in force (SOS's
	// pick, or the naive round robin).
	IdleSlices, NoChoiceSlices, SampleSlices, SymbiosSlices int
	// AbandonedPhases counts sample phases whose partial samples a jobmix
	// change discarded (SOS only).
	AbandonedPhases int
}

// count tallies what one step did.
func (r *Result) count(a acts) {
	switch a.kind {
	case idleSlice:
		r.IdleSlices++
	case noChoiceSlice:
		r.NoChoiceSlices++
	case sampleSlice:
		r.SampleSlices++
	case symbiosSlice:
		r.SymbiosSlices++
	}
	if a.abandoned {
		r.AbandonedPhases++
	}
	if a.shrunk {
		r.ShrunkPhases++
	}
	if a.picked {
		r.SamplePhases++
		r.SymbiosEntries++
		r.MaxBackoff = max(r.MaxBackoff, a.interval)
	}
}

// drive runs one scheduler over script for horizon cycles: the one slice
// loop both schedulers share. At each slice boundary it polls ctx, admits
// the arrivals due, and tells step what happened; step answers with the job
// ids to coschedule next, which drive runs on the core for one slice before
// it credits their progress and completes the jobs that finished. A
// cancelled or deadline-exceeded context aborts the run with its error.
func drive(ctx context.Context, cfg arch.Config, slice uint64, script Script, horizon uint64, step func(sliceEvent) acts) (Result, error) {
	c, err := cpu.New(cfg)
	if err != nil {
		return Result{}, err
	}
	if slice == 0 {
		return Result{}, fmt.Errorf("queueing: zero timeslice")
	}
	var (
		res       Result
		ev        sliceEvent
		jobs      = make(map[int]*activeJob)
		next      int       // the next scripted arrival, and its job's id
		responses []float64 // per-job response times, completion order
		sum, area float64   // of responses, and the integral of N(t) dt
	)
	for c.Cycle() < horizon {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		for ; next < len(script.Arrivals) && script.Arrivals[next].At <= c.Cycle(); next++ {
			a := script.Arrivals[next]
			job, err := workload.NewJob(workload.MustLookup(a.Benchmark), next, rng.Hash2(0xA88, uint64(next), 3))
			if err != nil {
				panic(err) // registry benchmarks are always valid
			}
			jobs[next] = &activeJob{job: job, arrival: a.At, work: a.Work}
			ev.admitted = append(ev.admitted, next)
		}
		a := step(ev)
		res.count(a)

		area += float64(float64(len(jobs)) * float64(slice))
		before := c.Snapshot()
		for i, id := range a.run {
			j := jobs[id].job
			c.Attach(i, j.Source(0), j.Progress[0], j.Gate(), 0)
		}
		c.Run(slice)
		ev = sliceEvent{}
		for i, id := range a.run {
			j := jobs[id]
			resume, committed := c.Detach(i)
			j.job.Progress[0] = resume
			j.done += committed
			res.TotalCommitted += committed
			if j.done >= j.work {
				resp := float64(c.Cycle() - j.arrival)
				sum += resp
				responses = append(responses, resp)
				delete(jobs, id)
				ev.departed = append(ev.departed, id)
			}
		}
		ev.delta = c.Snapshot().Sub(before)
	}

	res.Admitted = next
	res.Completed = len(responses)
	res.Cycles = c.Cycle()
	res.LeftoverInSystem = len(jobs)
	if len(responses) > 0 {
		res.MeanResponse = sum / float64(len(responses))
		sort.Float64s(responses)
		res.ResponseP50 = percentile(responses, 0.50)
		res.ResponseP99 = percentile(responses, 0.99)
		res.ResponseP999 = percentile(responses, 0.999)
	}
	if res.Cycles > 0 {
		res.MeanInSystem = area / float64(res.Cycles)
	}
	return res, nil
}

// percentile returns the p-quantile of an ascending-sorted slice using the
// nearest-rank method (deterministic, no interpolation).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(p*float64(len(sorted)))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RunNaive executes the control-group scheduler: jobs are coscheduled in
// tuples equal to the SMT level, in the order they arrived, round-robin,
// for horizon cycles. ctx is polled once per timeslice; a cancelled or
// deadline-exceeded context aborts the run with the context's error.
func RunNaive(ctx context.Context, cfg arch.Config, slice uint64, script Script, horizon uint64) (Result, error) {
	s := naiveState{contexts: cfg.Contexts}
	return drive(ctx, cfg, slice, script, horizon, func(e sliceEvent) (a acts) {
		s, a = s.step(e)
		return a
	})
}

// SOSOptions tunes the SOS queueing scheduler.
type SOSOptions struct {
	// Samples is the number of random schedules tried per sample phase.
	Samples int
	// Predictor picks the symbios schedule.
	Predictor core.Predictor
	// SymbiosInterval is the default symbiosis duration in cycles before a
	// timer-triggered resample (the paper uses the arrival interval).
	SymbiosInterval uint64
	// BacklogFactor, when positive, enables the arrivals-aware variant: a
	// sample phase that starts while more than BacklogFactor x contexts jobs
	// are resident tries only BacklogSamples candidates instead of Samples.
	// Under backlog the sample phase is pure overhead against the draining
	// rate, so the scheduler trades prediction quality for throughput.
	BacklogFactor float64
	// BacklogSamples is the shrunken sample count (default 2, min 1).
	BacklogSamples int
	// Seed drives schedule sampling.
	Seed uint64
}

// DefaultSOSOptions mirrors the paper's setup for an arrival script.
func DefaultSOSOptions(script Script) SOSOptions {
	return SOSOptions{
		Samples:         6,
		Predictor:       core.PredScore,
		SymbiosInterval: uint64(script.MeanInterarrival),
		Seed:            0x505,
	}
}

// RunSOS executes the SOS scheduler on the same script. Three events
// trigger a new sample phase: a job arrival, a job departure, or the
// expiration of the symbiosis timer; if a resample confirms the previous
// prediction, the symbiosis interval doubles (exponential backoff),
// reverting to the default on any jobmix change. ctx is polled once per
// timeslice, as in RunNaive.
func RunSOS(ctx context.Context, cfg arch.Config, slice uint64, script Script, horizon uint64, opt SOSOptions) (Result, error) {
	if opt.Samples < 1 {
		return Result{}, fmt.Errorf("queueing: Samples must be >= 1")
	}
	s := newSOS(cfg.Contexts, slice, opt)
	return drive(ctx, cfg, slice, script, horizon, func(e sliceEvent) (a acts) {
		s, a = s.step(e)
		return a
	})
}
