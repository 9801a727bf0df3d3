package core

import (
	"context"
	"fmt"

	"symbios/internal/schedule"
)

// EvalBatch advances many independent schedule evaluations through one
// pass. Each Add enqueues a (machine, schedule, slices) run; Run interleaves
// them timeslice by timeslice on the calling goroutine.
//
// Its one user is sosd's /v1/schedule/batch, which advances the rank
// requests of one envelope together inside a single queue task. The
// experiment drivers fan out one simulation per work item instead; DESIGN
// §12 has the measurement behind that choice.
//
// Equivalence contract: each run's machine touches only its own state, and
// every run executes exactly the operation sequence RunScheduleCtx would
// execute, in the same order. Interleaving at slice granularity therefore
// yields results bit-identical to evaluating each schedule alone — golden
// tests pin this. Machines must be distinct; two runs sharing a machine
// would interleave attachments on one core.
type EvalBatch struct {
	runs []*scheduleRun
}

// Add enqueues one evaluation and returns its index into Run's results.
// The machine must not appear in any other pending run of this batch.
func (b *EvalBatch) Add(m *Machine, s schedule.Schedule, slices int) (int, error) {
	for _, r := range b.runs {
		if r.m == m {
			return 0, fmt.Errorf("core: machine already enqueued in this batch")
		}
	}
	r, err := m.newScheduleRun(s, slices)
	if err != nil {
		return 0, err
	}
	b.runs = append(b.runs, r)
	return len(b.runs) - 1, nil
}

// Run executes all enqueued evaluations to completion, interleaved at
// timeslice granularity, and returns their results in Add order. On error
// (including context cancellation) every run's task progress is saved and
// the whole batch is abandoned; the machines stay consistent and reusable.
// The batch is drained afterwards either way.
func (b *EvalBatch) Run(ctx context.Context) ([]RunResult, error) {
	runs := b.runs
	b.runs = nil
	out := make([]RunResult, len(runs))
	active := len(runs)
	for active > 0 {
		for i, r := range runs {
			if r == nil {
				continue
			}
			if err := r.stepSlice(ctx); err != nil {
				for _, o := range runs {
					if o != nil && o != r {
						o.m.DetachAll()
					}
				}
				return nil, err
			}
			if r.done() {
				out[i] = r.finish()
				runs[i] = nil
				active--
			}
		}
	}
	return out, nil
}
