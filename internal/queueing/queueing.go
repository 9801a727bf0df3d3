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
//     runs it; when a resample confirms the previous prediction and nothing
//     else changed, the symbiosis interval backs off exponentially.
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
	"symbios/internal/counters"
	"symbios/internal/cpu"
	"symbios/internal/rng"
	"symbios/internal/schedule"
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
	id      int
	job     *workload.Job
	arrival uint64
	work    uint64 // instructions remaining
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
	// phases, symbios-phase entries, the largest symbiosis interval the
	// exponential backoff reached, and resamples forced by phase-change
	// (drift) detection.
	SamplePhases   int
	SymbiosEntries int
	MaxBackoff     uint64
	DriftResamples int

	// ShrunkPhases counts sample phases that ran with a reduced candidate
	// count because the backlog exceeded SOSOptions.BacklogFactor x contexts.
	ShrunkPhases int
}

// runner hosts the shared mechanics of both schedulers.
type runner struct {
	cfg   arch.Config
	c     *cpu.Core
	slice uint64

	script  Script
	nextArr int

	jobs   map[int]*activeJob
	nextID int

	now uint64

	completed      int
	sumResponse    float64
	responses      []float64 // per-job response times, completion order
	areaInSystem   float64   // integral of N(t) dt
	totalCommitted uint64
}

func newRunner(cfg arch.Config, slice uint64, script Script) (*runner, error) {
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	if slice == 0 {
		return nil, fmt.Errorf("queueing: zero timeslice")
	}
	return &runner{
		cfg:    cfg,
		c:      c,
		slice:  slice,
		script: script,
		jobs:   make(map[int]*activeJob),
	}, nil
}

// admit moves script arrivals with At <= now into the system. It reports
// how many arrived.
func (r *runner) admit() int {
	n := 0
	for r.nextArr < len(r.script.Arrivals) && r.script.Arrivals[r.nextArr].At <= r.now {
		a := r.script.Arrivals[r.nextArr]
		spec := workload.MustLookup(a.Benchmark)
		job, err := workload.NewJob(spec, r.nextID, rng.Hash2(0xA88, uint64(r.nextID), 3))
		if err != nil {
			panic(err) // registry benchmarks are always valid
		}
		r.jobs[r.nextID] = &activeJob{id: r.nextID, job: job, arrival: a.At, work: a.Work}
		r.nextID++
		r.nextArr++
		n++
	}
	return n
}

// runSlice coschedules the given job ids for one timeslice, swaps everyone
// out, credits progress, and completes finished jobs. It returns the number
// of departures.
func (r *runner) runSlice(ids []int) int {
	r.areaInSystem += float64(float64(len(r.jobs)) * float64(r.slice))

	n := 0
	for _, id := range ids {
		j := r.jobs[id]
		r.c.Attach(n, j.job.Source(0), j.job.Progress[0], j.job.Gate(), 0)
		n++
	}
	r.c.Run(r.slice)
	r.now = r.c.Cycle()

	departures := 0
	ctx := 0
	for _, id := range ids {
		j := r.jobs[id]
		resume, committed := r.c.Detach(ctx)
		ctx++
		j.job.Progress[0] = resume
		j.done += committed
		r.totalCommitted += committed
		if j.done >= j.work {
			resp := float64(r.now - j.arrival)
			r.sumResponse += resp
			r.responses = append(r.responses, resp)
			r.completed++
			delete(r.jobs, id)
			departures++
		}
	}
	return departures
}

// idleSlice advances time when no jobs are present.
func (r *runner) idleSlice() {
	r.c.Run(r.slice)
	r.now = r.c.Cycle()
}

// result finalizes the run report.
func (r *runner) result() Result {
	res := Result{
		Admitted:         r.nextArr,
		Completed:        r.completed,
		Cycles:           r.now,
		TotalCommitted:   r.totalCommitted,
		LeftoverInSystem: len(r.jobs),
	}
	if r.completed > 0 {
		res.MeanResponse = r.sumResponse / float64(r.completed)
		sorted := append([]float64(nil), r.responses...)
		sort.Float64s(sorted)
		res.ResponseP50 = percentile(sorted, 0.50)
		res.ResponseP99 = percentile(sorted, 0.99)
		res.ResponseP999 = percentile(sorted, 0.999)
	}
	if r.now > 0 {
		res.MeanInSystem = r.areaInSystem / float64(r.now)
	}
	return res
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

// sortedIDs returns the active job ids in arrival (id) order.
func (r *runner) sortedIDs() []int {
	ids := make([]int, 0, len(r.jobs))
	for id := range r.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// RunNaive executes the control-group scheduler: jobs are coscheduled in
// tuples equal to the SMT level, in the order they arrived, round-robin,
// for horizon cycles. ctx is polled once per timeslice; a cancelled or
// deadline-exceeded context aborts the run with the context's error.
func RunNaive(ctx context.Context, cfg arch.Config, slice uint64, script Script, horizon uint64) (Result, error) {
	r, err := newRunner(cfg, slice, script)
	if err != nil {
		return Result{}, err
	}
	var rr []int // round-robin queue of job ids
	for r.now < horizon {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if n := r.admit(); n > 0 {
			rr = appendNew(rr, r.jobs, n)
		}
		if len(rr) == 0 {
			r.idleSlice()
			continue
		}
		y := cfg.Contexts
		if y > len(rr) {
			y = len(rr)
		}
		running := append([]int(nil), rr[:y]...)
		rr = append(rr[y:], running...)
		r.runSlice(running)
		rr = dropDead(rr, r.jobs)
	}
	return r.result(), nil
}

// appendNew appends ids of the n most recently admitted jobs (the highest
// ids) in order.
func appendNew(rr []int, jobs map[int]*activeJob, n int) []int {
	ids := make([]int, 0, n)
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// take the n largest, in ascending order
	ids = ids[len(ids)-n:]
	return append(rr, ids...)
}

// dropDead removes completed jobs from the round-robin queue.
func dropDead(rr []int, jobs map[int]*activeJob) []int {
	out := rr[:0]
	for _, id := range rr {
		if _, ok := jobs[id]; ok {
			out = append(out, id)
		}
	}
	return out
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
	// DriftThreshold, when positive, enables phase-change detection: if the
	// symbios-phase IPC deviates from the sample-phase prediction by more
	// than this fraction for DriftWindow consecutive timeslices, the
	// scheduler resamples immediately ("if the jobmix is observed to be
	// changing rapidly, sampling frequency goes up").
	DriftThreshold float64
	// DriftWindow is the consecutive-slice requirement (default 3).
	DriftWindow int
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
// expiration of the symbiosis timer; if a timer-triggered resample confirms
// the previous prediction, the symbiosis interval doubles (exponential
// backoff), reverting to the default on any jobmix change. ctx is polled
// once per timeslice, as in RunNaive.
func RunSOS(ctx context.Context, cfg arch.Config, slice uint64, script Script, horizon uint64, opt SOSOptions) (Result, error) {
	r, err := newRunner(cfg, slice, script)
	if err != nil {
		return Result{}, err
	}
	if opt.Samples < 1 {
		return Result{}, fmt.Errorf("queueing: Samples must be >= 1")
	}
	rs := rng.New(opt.Seed)

	type phase int
	const (
		phSample phase = iota
		phSymbios
	)

	driftWindow := opt.DriftWindow
	if driftWindow <= 0 {
		driftWindow = 3
	}

	var (
		ph             = phSample
		samplePhases   int
		symbiosEntries int
		maxBackoff     uint64
		driftResamples int
		shrunkPhases   int
		driftStreak    int
		chosenIPC      float64

		cands         []schedule.Schedule // candidate schedules this sample phase
		candIdx       int
		samples       []core.Sample
		sliceIPCs     []float64
		rotLeft       int // slices left in current candidate's rotation
		chosen        schedule.Schedule
		prevKey       string // canonical key of previous prediction
		symbiosLeft   uint64
		backoff       = opt.SymbiosInterval
		rotStart      counters.Set
		lastSnap      counters.Set
		running       []int
		queue         []int
		rotationReset = true
	)

	startSample := func() {
		ph = phSample
		cands = nil
		samples = nil
		candIdx = 0
		rotationReset = true
	}

	// scheduleOrder maps a schedule's task indices onto current job ids.
	ids := func() []int { return r.sortedIDs() }

	setupRotation := func(s schedule.Schedule) {
		all := ids()
		running = running[:0]
		queue = queue[:0]
		for i, ti := range s.Order {
			if i < s.Y {
				running = append(running, all[ti])
			} else {
				queue = append(queue, all[ti])
			}
		}
	}

	for r.now < horizon {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		arrived := r.admit()
		x := len(r.jobs)
		y := cfg.Contexts

		if arrived > 0 {
			// "It is always worthwhile resampling when a new job comes in."
			startSample()
			backoff = opt.SymbiosInterval
		}

		if x == 0 {
			r.idleSlice()
			continue
		}
		if x <= y {
			// Everyone fits: no schedule choice to make.
			dep := r.runSlice(ids())
			if dep > 0 {
				startSample()
				backoff = opt.SymbiosInterval
			}
			continue
		}

		switch ph {
		case phSample:
			if rotationReset {
				if cands == nil {
					n := opt.Samples
					if opt.BacklogFactor > 0 && float64(x) > opt.BacklogFactor*float64(y) {
						n = opt.BacklogSamples
						if n <= 0 {
							n = 2
						}
						if n > opt.Samples {
							n = opt.Samples
						}
						shrunkPhases++
					}
					cands = schedule.Sample(rs, x, y, y, n)
					candIdx = 0
					samples = samples[:0]
				}
				if candIdx >= len(cands) {
					// All candidates measured: choose and enter symbios.
					idx := core.Pick(samples, opt.Predictor)
					chosen = samples[idx].Sched
					key := chosen.Canonical()
					if key == prevKey {
						backoff *= 2
					} else {
						backoff = opt.SymbiosInterval
					}
					prevKey = key
					symbiosLeft = backoff
					ph = phSymbios
					samplePhases++
					symbiosEntries++
					if backoff > maxBackoff {
						maxBackoff = backoff
					}
					chosenIPC = samples[idx].IPC
					driftStreak = 0
					lastSnap = r.c.Snapshot()
					setupRotation(chosen)
					continue
				}
				setupRotation(cands[candIdx])
				rotLeft = cands[candIdx].CycleSlices()
				sliceIPCs = sliceIPCs[:0]
				rotStart = r.c.Snapshot()
				lastSnap = rotStart
				rotationReset = false
			}
			dep := r.runSliceRotate(&running, &queue)
			snap := r.c.Snapshot()
			sliceIPCs = append(sliceIPCs, snap.Sub(lastSnap).IPC())
			lastSnap = snap
			rotLeft--
			if dep > 0 {
				startSample()
				backoff = opt.SymbiosInterval
				continue
			}
			if rotLeft == 0 {
				res := core.RunResult{
					Cycles:    snap.Cycles - rotStart.Cycles,
					Counters:  snap.Sub(rotStart),
					SliceIPCs: append([]float64(nil), sliceIPCs...),
				}
				samples = append(samples, core.NewSample(cands[candIdx], res))
				candIdx++
				rotationReset = true
			}

		case phSymbios:
			dep := r.runSliceRotate(&running, &queue)
			snap := r.c.Snapshot()
			sliceIPC := snap.Sub(lastSnap).IPC()
			lastSnap = snap
			if dep > 0 {
				startSample()
				backoff = opt.SymbiosInterval
				continue
			}
			if opt.DriftThreshold > 0 && chosenIPC > 0 {
				rel := sliceIPC/chosenIPC - 1
				if rel < 0 {
					rel = -rel
				}
				if rel > opt.DriftThreshold {
					driftStreak++
				} else {
					driftStreak = 0
				}
				if driftStreak >= driftWindow {
					driftResamples++
					startSample()
					backoff = opt.SymbiosInterval
					continue
				}
			}
			if symbiosLeft <= r.slice {
				startSample()
			} else {
				symbiosLeft -= r.slice
			}
		}
	}
	res := r.result()
	res.SamplePhases = samplePhases
	res.SymbiosEntries = symbiosEntries
	res.MaxBackoff = maxBackoff
	res.DriftResamples = driftResamples
	res.ShrunkPhases = shrunkPhases
	return res, nil
}

// runSliceRotate runs the current running set for one slice, then rotates
// it against the queue (swap-all, FIFO). Departed jobs are pruned from both
// structures. It returns the number of departures.
func (r *runner) runSliceRotate(running, queue *[]int) int {
	dep := r.runSlice(*running)
	// Rotate: the whole running set retires to the queue tail; refill from
	// the queue head.
	*queue = append(*queue, *running...)
	*queue = dropDead(*queue, r.jobs)
	n := r.cfg.Contexts
	if n > len(*queue) {
		n = len(*queue)
	}
	*running = append((*running)[:0], (*queue)[:n]...)
	*queue = (*queue)[n:]
	return dep
}
