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
// transiently failed; RunScheduleCtx drops that interval's observation,
// tallies it in RunResult.ReadFailures and keeps executing, so a hardened
// driver can decide whether the run's measurement is still trustworthy.
//
// The reader corrupts only the scheduler's view: task progress, committed
// instruction accounting and the weighted-speedup inputs always use the true
// machine state.
type CounterReader interface {
	Observe(delta counters.Set) (counters.Set, error)
}

// ErrCounterRead marks a transient counter read failure injected by a
// CounterReader. RunScheduleCtx matches it with errors.Is to distinguish a
// lost observation (tolerated, counted) from a reader bug (aborts the run).
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
// schedules surface as diagnosable failures from RunScheduleCtx.
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

// RunScheduleCtx executes s for the given number of timeslices, starting
// from the schedule's initial running set, and returns the aggregated
// result. slices is typically a multiple of s.CycleSlices() so every task
// receives equal CPU time. All tasks are detached (their progress saved) on
// return.
//
// ctx is polled at every timeslice boundary: a cancelled or
// deadline-exceeded context aborts the run promptly, returning the context's
// error with all task progress saved (the machine stays consistent and
// reusable). The poll never changes results: an un-aborted run is
// bit-identical under any context.
func (m *Machine) RunScheduleCtx(ctx context.Context, s schedule.Schedule, slices int) (RunResult, error) {
	if err := s.Validate(); err != nil {
		return RunResult{}, err
	}
	if s.X() != len(m.tasks) {
		return RunResult{}, fmt.Errorf("core: schedule over %d entries, machine has %d tasks", s.X(), len(m.tasks))
	}
	if s.Y != m.Core.Config().Contexts {
		return RunResult{}, fmt.Errorf("core: schedule Y=%d, machine has %d contexts", s.Y, m.Core.Config().Contexts)
	}

	res := RunResult{
		Committed: make([]uint64, len(m.tasks)),
		SliceIPCs: make([]float64, 0, slices),
	}
	running := append([]int(nil), s.Order[:s.Y]...)
	queue := append([]int(nil), s.Order[s.Y:]...)

	start := m.Core.Snapshot()
	prev := start
	for slice := 0; slice < slices; slice++ {
		if err := ctx.Err(); err != nil {
			m.DetachAll()
			return RunResult{}, err
		}
		for _, ti := range running {
			if err := m.attach(ti); err != nil {
				m.DetachAll()
				return RunResult{}, err
			}
		}
		m.Core.Run(m.SliceCycles)

		snap := m.Core.Snapshot()
		d := snap.Sub(prev)
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
				res.Counters = res.Counters.Add(d)
				res.SliceIPCs = append(res.SliceIPCs, d.IPC())
			case errors.Is(err, ErrCounterRead):
				res.ReadFailures++
				m.sim.recordReadFailure()
			default:
				m.DetachAll()
				return RunResult{}, fmt.Errorf("core: slice %d: %w", slice, err)
			}
		} else {
			res.SliceIPCs = append(res.SliceIPCs, d.IPC())
		}
		prev = snap

		// Rotate: swap out the Z longest-resident running tasks FIFO,
		// admit Z from the queue head.
		z := s.Z
		for _, ti := range running[:z] {
			m.detach(ti, res.Committed)
		}
		queue = append(queue, running[:z]...)
		running = append(running[z:], queue[:z]...)
		queue = queue[z:]
	}
	// Collect the tasks still resident.
	for _, ti := range running {
		m.detach(ti, res.Committed)
	}
	end := m.Core.Snapshot()
	if m.reader == nil {
		res.Counters = end.Sub(start)
	}
	// Cycles is the timebase, always true even under an interposed reader:
	// the weighted-speedup metric measures real machine time.
	res.Cycles = end.Sub(start).Cycles
	return res, nil
}

// WarmSlices is the warm-up length every driver uses: the timeslices of the
// fewest whole rotations of s, at sliceCycles each, that run strictly longer
// than cycles — one rotation more than fit in cycles, even when cycles is a
// whole number of rotations. (Serve scale's 200k-cycle warm-up is five
// 40k-cycle rotations of a Jsb(6,3,3) schedule, and runs six: 240k cycles.)
func WarmSlices(s schedule.Schedule, sliceCycles, cycles uint64) int {
	rot := s.CycleSlices()
	return rot * (int(cycles/(uint64(rot)*sliceCycles)) + 1)
}

// Warm runs WarmSlices of s, unrecorded, bringing the memory system to
// steady state ("we begin simulation with each benchmark partially
// executed"), bounded by ctx as RunScheduleCtx is.
func (m *Machine) Warm(ctx context.Context, s schedule.Schedule, cycles uint64) error {
	_, err := m.RunScheduleCtx(ctx, s, WarmSlices(s, m.SliceCycles, cycles))
	return err
}

// DetachAll removes every resident task, saving progress: an aborted run and
// a SetTasks rebind both leave the machine with no task attached.
func (m *Machine) DetachAll() {
	for ti := range m.taskCtx {
		m.detach(ti, nil)
	}
}
