package cpu

// Batch advances many independent Cores through the same number of cycles,
// interleaved in bounded chunks. It is the core-level counterpart of
// core.EvalBatch: a worker claims one batch — one coarse work item for the
// parallel pool — instead of one simulation. Its one user is the pairwise
// matrix, whose cell groups are also its checkpoint shard keys.
//
// Equivalence contract: a Core's step function reads and writes only that
// Core's state, and Run(a) followed by Run(b) is by construction identical
// to Run(a+b). Interleaving chunk-sized Run calls across cores therefore
// leaves every core in exactly the state a solo Run of the full duration
// would have produced — counters, commit counts and all. The golden and
// differential suites pin this.
type Batch struct {
	cores []*Core
}

// Add enqueues a core. Cores must be distinct; the zero Batch is ready to
// use.
func (b *Batch) Add(c *Core) { b.cores = append(b.cores, c) }

// batchChunk bounds how many cycles one core runs before the batch moves
// on to the next. The value trades interleaving granularity against the
// cost of re-warming each simulation's working set in the host cache; it
// has no effect on simulated results.
const batchChunk = 100_000

// Run advances every enqueued core by exactly cycles. The cores stay
// enqueued, so successive phases (warmup, then measurement) reuse one
// batch.
func (b *Batch) Run(cycles uint64) {
	for done := uint64(0); done < cycles; {
		n := cycles - done
		if n > batchChunk {
			n = batchChunk
		}
		for _, c := range b.cores {
			c.Run(n)
		}
		done += n
	}
}
