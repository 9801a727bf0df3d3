// Package core implements the paper's contribution: the SOS (Sample,
// Optimize, Symbios) jobscheduler for a simultaneous multithreading
// processor.
//
// SOS runs in two phases. In the sample phase it permutes the set of
// coscheduled jobs while making fair progress through the jobmix, reading
// the hardware performance counters after each schedule it tries. It then
// applies a predictor (Section 5.1) to the samples to guess which schedule
// will deliver the highest weighted speedup, and runs that schedule in the
// symbios phase. Because the sample phase performs exactly as much useful
// work as a naive scheduler would, sampling is overhead-free; the only cost
// is the occasional reading and resetting of counters.
package core

import (
	"context"
	"errors"
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/counters"
	"symbios/internal/cpu"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// CounterReader interposes between the hardware performance counters and
// what the jobscheduler sees. Observe receives the true interval delta after
// each timeslice and returns the delta as the scheduler observes it —
// possibly noisy, stale, clipped or stuck (internal/faults implements the
// fault models). Returning an error wrapping ErrCounterRead marks the read
// transiently failed; RunSchedule drops that interval's observation, tallies
// it in RunResult.ReadFailures and keeps executing, so a hardened driver can
// decide whether the run's measurement is still trustworthy.
//
// The reader corrupts only the scheduler's view: task progress, committed
// instruction accounting and the weighted-speedup inputs always use the true
// machine state.
type CounterReader interface {
	Observe(delta counters.Set) (counters.Set, error)
}

// ErrCounterRead marks a transient counter read failure injected by a
// CounterReader. RunSchedule matches it with errors.Is to distinguish a lost
// observation (tolerated, counted) from a reader bug (aborts the run).
var ErrCounterRead = errors.New("core: transient counter read failure")

// Task is one schedulable entry: a software thread of a job. On an SMT
// machine each scheduled task occupies one hardware context. A
// single-threaded job is one task; the two threads of ARRAY in the Jpb
// mixes are two tasks that the scheduler may or may not coschedule.
type Task struct {
	Job    *workload.Job
	Thread int
}

// Name renders the task for diagnostics, e.g. "ARRAY.1".
func (t Task) Name() string {
	if t.Job.Threads() == 1 {
		return t.Job.Name()
	}
	return fmt.Sprintf("%s.%d", t.Job.Name(), t.Thread)
}

// Machine binds a simulated SMT core to a jobmix and executes schedules
// timeslice by timeslice, preserving each task's progress across context
// switches.
type Machine struct {
	Core  *cpu.Core
	tasks []Task

	// SliceCycles is the timeslice length ("every 5 million cycles ... the
	// jobscheduler receives a clock pulse", scaled per the harness).
	SliceCycles uint64

	// taskCtx[i] is the hardware context task i occupies, or -1.
	taskCtx []int

	// reader, when non-nil, interposes on every counter read the scheduler
	// performs (fault injection); nil reads the counters directly.
	reader CounterReader

	// sim, when non-nil, receives each timeslice's true counter delta
	// (registry observability). It never feeds back into scheduling.
	sim *SimMetrics
}

// NewMachine constructs a machine for cfg over the given jobs. Tasks are
// the (job, thread) pairs in job-list order — the task indexing every
// Schedule refers to.
func NewMachine(cfg arch.Config, jobs []*workload.Job, sliceCycles uint64) (*Machine, error) {
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	if sliceCycles < 1 {
		return nil, fmt.Errorf("core: timeslice must be >= 1 cycle, got %d", sliceCycles)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: no jobs; a machine needs a non-empty jobmix")
	}
	m := &Machine{Core: c, SliceCycles: sliceCycles}
	if err := m.SetTasks(jobs); err != nil {
		return nil, err
	}
	return m, nil
}

// SetTasks rebinds the machine to a new job list — the jobmix-churn entry
// point. Any resident tasks are detached first (progress saved); jobs
// retained across the call keep their cache and predictor state, since the
// memory system tags lines by job address space. Task indices are
// renumbered in job-list order, so any previously drawn schedule is
// invalidated and the caller must resample.
func (m *Machine) SetTasks(jobs []*workload.Job) error {
	if len(jobs) == 0 {
		return fmt.Errorf("core: no jobs; a machine needs a non-empty jobmix")
	}
	if m.taskCtx != nil {
		m.DetachAll()
	}
	var tasks []Task
	for _, j := range jobs {
		for t := 0; t < j.Threads(); t++ {
			tasks = append(tasks, Task{Job: j, Thread: t})
		}
	}
	if len(tasks) < m.Core.Config().Contexts {
		return fmt.Errorf("core: %d tasks for %d contexts; the running set cannot be filled", len(tasks), m.Core.Config().Contexts)
	}
	m.tasks = tasks
	m.taskCtx = make([]int, len(tasks))
	for i := range m.taskCtx {
		m.taskCtx[i] = -1
	}
	return nil
}

// SetCounterReader interposes r on every subsequent counter read (nil
// restores direct reads). Give each machine its own reader: readers are
// stateful and the determinism contract requires the read sequence be a
// function of this machine's activity alone.
func (m *Machine) SetCounterReader(r CounterReader) { m.reader = r }

// SetSimMetrics attaches registry counter handles that receive each
// timeslice's true delta (nil detaches). Purely observational: results
// are bit-identical with metrics attached or not, and the per-slice cost
// is a handful of atomic adds with zero allocations. One SimMetrics may
// be shared by many machines; the counters aggregate.
func (m *Machine) SetSimMetrics(sm *SimMetrics) { m.sim = sm }

// Tasks returns the schedulable entries in index order.
func (m *Machine) Tasks() []Task { return m.tasks }

// Jobs returns the machine's current job list, each job once, in task
// order (the list SetTasks was last given).
func (m *Machine) Jobs() []*workload.Job {
	var out []*workload.Job
	var last *workload.Job
	for _, t := range m.tasks {
		if t.Job != last {
			out = append(out, t.Job)
			last = t.Job
		}
	}
	return out
}

// NumTasks returns X, the number of schedulable entries.
func (m *Machine) NumTasks() int { return len(m.tasks) }

// RunResult aggregates one schedule execution.
type RunResult struct {
	// Cycles is the simulated length of the run.
	Cycles uint64
	// Committed[i] is the instructions task i retired during the run.
	Committed []uint64
	// Counters is the counter delta over the run.
	Counters counters.Set
	// SliceIPCs is the machine IPC of each timeslice, in order (the
	// Balance predictor's input). Under an interposed CounterReader these
	// are the observed values; slices whose read failed outright are
	// absent.
	SliceIPCs []float64
	// ReadFailures counts timeslices whose counter read failed transiently
	// (ErrCounterRead from the interposed reader). The machine kept
	// running — progress accounting below is always true — but Counters
	// and SliceIPCs are missing those intervals, so a driver that needs a
	// trustworthy sample must retry when this is nonzero.
	ReadFailures int
}

// attach puts task ti on a free context. It reports an error — rather than
// crashing — when no context is free, so malformed (possibly fault-injected)
// schedules surface as diagnosable failures from RunSchedule.
func (m *Machine) attach(ti int) error {
	if m.taskCtx[ti] >= 0 {
		return nil
	}
	for ctx := 0; ctx < m.Core.Config().Contexts; ctx++ {
		if !m.Core.Occupied(ctx) {
			t := m.tasks[ti]
			m.Core.Attach(ctx, t.Job.Source(t.Thread), t.Job.Progress[t.Thread], t.Job.Gate(), t.Thread)
			m.taskCtx[ti] = ctx
			return nil
		}
	}
	return fmt.Errorf("core: no free context for task %s; running set exceeds SMT level %d", m.tasks[ti].Name(), m.Core.Config().Contexts)
}

// detach removes task ti, saving its progress, and credits committed
// instructions both to the job and to acc (when non-nil).
func (m *Machine) detach(ti int, acc []uint64) {
	ctx := m.taskCtx[ti]
	if ctx < 0 {
		return
	}
	t := m.tasks[ti]
	resume, committed := m.Core.Detach(ctx)
	t.Job.Progress[t.Thread] = resume
	t.Job.Committed[t.Thread] += committed
	if acc != nil {
		acc[ti] += committed
	}
	m.taskCtx[ti] = -1
}

// RunSchedule executes s for the given number of timeslices, starting from
// the schedule's initial running set, and returns the aggregated result.
// slices is typically a multiple of s.CycleSlices() so every task receives
// equal CPU time. All tasks are detached (their progress saved) on return.
func (m *Machine) RunSchedule(s schedule.Schedule, slices int) (RunResult, error) {
	return m.RunScheduleCtx(nil, s, slices)
}

// RunScheduleCtx is RunSchedule bounded by a context: the context is polled
// at every timeslice boundary and a cancelled or deadline-exceeded context
// aborts the run promptly, returning the context's error with all task
// progress saved (the machine stays consistent and reusable). A nil context
// behaves like RunSchedule. The poll never changes results: an un-aborted
// run is bit-identical with or without a context.
func (m *Machine) RunScheduleCtx(ctx context.Context, s schedule.Schedule, slices int) (RunResult, error) {
	r, err := m.newScheduleRun(s, slices)
	if err != nil {
		return RunResult{}, err
	}
	for !r.done() {
		if err := r.stepSlice(ctx); err != nil {
			return RunResult{}, err
		}
	}
	return r.finish(), nil
}

// WarmSlices is the warm-up length every driver uses: the timeslices of
// whole rotations of s, at sliceCycles each, that cover at least cycles.
func WarmSlices(s schedule.Schedule, sliceCycles, cycles uint64) int {
	rot := s.CycleSlices()
	return rot * (int(cycles/(uint64(rot)*sliceCycles)) + 1)
}

// Warm runs WarmSlices of s, unrecorded, bringing the memory system to
// steady state ("we begin simulation with each benchmark partially
// executed"). A nil context is unbounded.
func (m *Machine) Warm(ctx context.Context, s schedule.Schedule, cycles uint64) error {
	_, err := m.RunScheduleCtx(ctx, s, WarmSlices(s, m.SliceCycles, cycles))
	return err
}

// scheduleRun is one schedule execution in progress, advanced one timeslice
// at a time. Splitting the slice loop out of RunScheduleCtx lets EvalBatch
// interleave many runs; a run's machine operations are a function of its own
// state alone, so any interleaving of independent runs produces results
// bit-identical to running each to completion by itself.
type scheduleRun struct {
	m              *Machine
	s              schedule.Schedule
	slices, slice  int
	res            RunResult
	running, queue []int
	start, prev    counters.Set
}

// newScheduleRun validates s against the machine and prepares a run.
func (m *Machine) newScheduleRun(s schedule.Schedule, slices int) (*scheduleRun, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.X() != len(m.tasks) {
		return nil, fmt.Errorf("core: schedule over %d entries, machine has %d tasks", s.X(), len(m.tasks))
	}
	if s.Y != m.Core.Config().Contexts {
		return nil, fmt.Errorf("core: schedule Y=%d, machine has %d contexts", s.Y, m.Core.Config().Contexts)
	}
	start := m.Core.Snapshot()
	return &scheduleRun{
		m:      m,
		s:      s,
		slices: slices,
		res: RunResult{
			Committed: make([]uint64, len(m.tasks)),
			SliceIPCs: make([]float64, 0, slices),
		},
		running: append([]int(nil), s.Order[:s.Y]...),
		queue:   append([]int(nil), s.Order[s.Y:]...),
		start:   start,
		prev:    start,
	}, nil
}

// done reports whether every timeslice has executed.
func (r *scheduleRun) done() bool { return r.slice >= r.slices }

// stepSlice executes one timeslice: attach the running set, run, observe the
// counter delta, rotate. On error (including context cancellation) all task
// progress is saved and the run must be abandoned.
func (r *scheduleRun) stepSlice(ctx context.Context) error {
	m := r.m
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			m.DetachAll()
			return err
		}
	}
	for _, ti := range r.running {
		if err := m.attach(ti); err != nil {
			m.DetachAll()
			return err
		}
	}
	m.Core.Run(m.SliceCycles)

	snap := m.Core.Snapshot()
	d := snap.Sub(r.prev)
	// Observability sees the true delta, before any fault-injected
	// reader corrupts the scheduler's view.
	m.sim.recordSlice(d)
	if m.reader != nil {
		// The scheduler reads the counters through the interposed
		// (possibly faulty) reader; progress accounting below stays
		// true regardless. A transient read failure loses only the
		// observation — the hardware does not stop because the PMU
		// misbehaved — and is tallied for the caller to judge; any
		// other reader error is a harness bug and aborts.
		obs, err := m.reader.Observe(d)
		switch {
		case err == nil:
			d = obs
			r.res.Counters = r.res.Counters.Add(d)
			r.res.SliceIPCs = append(r.res.SliceIPCs, d.IPC())
		case errors.Is(err, ErrCounterRead):
			r.res.ReadFailures++
			m.sim.recordReadFailure()
		default:
			m.DetachAll()
			return fmt.Errorf("core: slice %d: %w", r.slice, err)
		}
	} else {
		r.res.SliceIPCs = append(r.res.SliceIPCs, d.IPC())
	}
	r.prev = snap

	// Rotate: swap out the Z longest-resident running tasks FIFO,
	// admit Z from the queue head.
	z := r.s.Z
	for _, ti := range r.running[:z] {
		m.detach(ti, r.res.Committed)
	}
	r.queue = append(r.queue, r.running[:z]...)
	r.running = append(r.running[z:], r.queue[:z]...)
	r.queue = r.queue[z:]
	r.slice++
	return nil
}

// finish detaches the resident tasks and returns the aggregated result.
func (r *scheduleRun) finish() RunResult {
	m := r.m
	for _, ti := range r.running {
		m.detach(ti, r.res.Committed)
	}
	end := m.Core.Snapshot()
	if m.reader == nil {
		r.res.Counters = end.Sub(r.start)
	}
	// Cycles is the timebase, always true even under an interposed reader:
	// the weighted-speedup metric measures real machine time.
	r.res.Cycles = end.Sub(r.start).Cycles
	return r.res
}

// DetachAll removes every resident task, saving progress (used by drivers
// that interleave schedules with other work).
func (m *Machine) DetachAll() {
	for ti := range m.taskCtx {
		m.detach(ti, nil)
	}
}
