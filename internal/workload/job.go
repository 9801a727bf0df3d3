package workload

import (
	"fmt"

	"symbios/internal/cpu"
	"symbios/internal/trace"
)

// Job is a running instance of a Spec: one or more software threads, each
// with a resumable position in its instruction stream. The jobscheduler's
// schedulable unit is the (job, thread) pair — on an SMT machine each
// software thread occupies one hardware context — and the paper's Jpb mixes
// treat the two threads of ARRAY as two separately schedulable entries.
type Job struct {
	Spec Spec
	// ID is the job's identity within its mix (also its address space).
	ID int

	sources []threadSource
	gate    *BarrierGroup

	// Progress[t] is the next instruction sequence number thread t will
	// fetch when next scheduled.
	Progress []uint64
	// Committed[t] is the total instructions thread t has retired.
	Committed []uint64

	// SoloIPC is the job's single-threaded offer rate, filled in by
	// calibration (metrics package); the weighted speedup denominator.
	SoloIPC float64
}

// NewJob instantiates spec as job id with the given stream seed. Threads of
// a multithreaded job share the job's address space (they operate on shared
// data) but have distinct instruction streams.
func NewJob(spec Spec, id int, seed uint64) (*Job, error) {
	if spec.Threads < 1 {
		return nil, fmt.Errorf("workload: job %q has %d threads", spec.Name, spec.Threads)
	}
	j := &Job{
		Spec:      spec,
		ID:        id,
		sources:   make([]threadSource, spec.Threads),
		Progress:  make([]uint64, spec.Threads),
		Committed: make([]uint64, spec.Threads),
	}
	for t := 0; t < spec.Threads; t++ {
		base, err := trace.NewStream(spec.Params, seed+uint64(t)*0x1000_0000, uint64(id))
		if err != nil {
			return nil, fmt.Errorf("workload: job %q: %w", spec.Name, err)
		}
		j.sources[t] = threadSource{base: base, syncEvery: spec.SyncEvery}
	}
	if spec.Threads > 1 && spec.SyncEvery > 0 {
		j.gate = NewBarrierGroup(spec.Threads)
	}
	return j, nil
}

// Fresh returns a new instance of j at the start of its streams: the same
// spec, ID and instruction sources, with its own progress, committed counts
// and barrier gate. Sources are pure in seq, so any number of instances may
// share them, from several goroutines; each instance runs as a job built
// from scratch would.
func (j *Job) Fresh() *Job {
	k := &Job{
		Spec:      j.Spec,
		ID:        j.ID,
		sources:   append([]threadSource(nil), j.sources...),
		Progress:  make([]uint64, len(j.sources)),
		Committed: make([]uint64, len(j.sources)),
		SoloIPC:   j.SoloIPC,
	}
	if j.gate != nil {
		k.gate = NewBarrierGroup(len(j.sources))
	}
	return k
}

// Taped returns a fresh instance of j (see Fresh) whose threads read a
// trace.Tape of each of j's streams. Instances of the taped job share the
// tapes, so an instruction one of them generates is recorded for all.
func (j *Job) Taped() *Job {
	k := j.Fresh()
	for t := range k.sources {
		if s, ok := k.sources[t].base.(*trace.Stream); ok {
			k.sources[t].base = trace.NewTape(s)
		}
	}
	return k
}

// MustNewJob is NewJob for registry specs that are known valid.
func MustNewJob(spec Spec, id int, seed uint64) *Job {
	j, err := NewJob(spec, id, seed)
	if err != nil {
		panic(err)
	}
	return j
}

// Name returns the job's benchmark name.
func (j *Job) Name() string { return j.Spec.Name }

// Threads returns the number of software threads.
func (j *Job) Threads() int { return j.Spec.Threads }

// Source returns the instruction stream for thread t.
func (j *Job) Source(t int) cpu.Source { return j.sources[t] }

// Gate returns the barrier gate shared by the job's threads (nil for
// single-threaded or unsynchronized jobs).
func (j *Job) Gate() cpu.SyncGate {
	if j.gate == nil {
		return nil
	}
	return j.gate
}

// TotalCommitted sums committed instructions over all threads.
func (j *Job) TotalCommitted() uint64 {
	var n uint64
	for _, c := range j.Committed {
		n += c
	}
	return n
}

// stream is what a thread reads instructions from: a *trace.Stream, or a
// *trace.Tape recording one.
type stream interface {
	At(seq uint64) trace.Inst
	Fill(seq uint64, out []trace.Inst)
}

// threadSource wraps a trace stream, inserting a SYNC barrier marker every
// syncEvery instructions. For SYNC the Inst.Seq field carries the barrier
// ordinal, which is the protocol the cpu package expects.
type threadSource struct {
	base      stream
	syncEvery uint64
}

// At returns instruction seq of the thread's stream.
func (s threadSource) At(seq uint64) trace.Inst {
	if s.syncEvery > 0 && (seq+1)%s.syncEvery == 0 {
		return trace.Inst{Op: trace.SYNC, Seq: seq / s.syncEvery}
	}
	return s.base.At(seq)
}

// Fill writes instructions seq.. into out (out[i] == At(seq+i)): runs of
// the base stream with a SYNC marker spliced in at the last position of
// every syncEvery-long group.
func (s threadSource) Fill(seq uint64, out []trace.Inst) {
	if s.syncEvery == 0 {
		s.base.Fill(seq, out)
		return
	}
	for len(out) > 0 {
		n := int(min(s.syncEvery-1-seq%s.syncEvery, uint64(len(out)))) // plain instructions before the next marker
		s.base.Fill(seq, out[:n])
		seq += uint64(n)
		out = out[n:]
		if len(out) > 0 {
			out[0] = trace.Inst{Op: trace.SYNC, Seq: seq / s.syncEvery}
			seq++
			out = out[1:]
		}
	}
}

// BarrierGroup coordinates the threads of one multithreaded job. A thread
// may pass barrier k only once every sibling has arrived at barrier k.
// TryPass is idempotent, which matters because a squashed thread re-arrives
// at the same barrier after a context switch.
type BarrierGroup struct {
	arrived []uint64 // arrived[t] = 1 + highest barrier index thread t reached
}

// NewBarrierGroup creates a gate for n threads.
func NewBarrierGroup(n int) *BarrierGroup {
	return &BarrierGroup{arrived: make([]uint64, n)}
}

// TryPass records that thread has arrived at barrier idx and reports
// whether all siblings have arrived, releasing the thread.
func (g *BarrierGroup) TryPass(thread int, idx uint64) bool {
	if g.arrived[thread] < idx+1 {
		g.arrived[thread] = idx + 1
	}
	for _, a := range g.arrived {
		if a < idx+1 {
			return false
		}
	}
	return true
}

// Arrived returns the barrier progress of each thread (diagnostics).
func (g *BarrierGroup) Arrived() []uint64 {
	out := make([]uint64, len(g.arrived))
	copy(out, g.arrived)
	return out
}
