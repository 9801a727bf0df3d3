// Package cpu implements the cycle-level simultaneous multithreading
// processor simulator that substitutes for SMTSIM.
//
// The model is an out-of-order superscalar core based on the Alpha 21264
// with hardware contexts added for SMT, simulated cycle by cycle:
//
//   - Fetch uses the ICOUNT.2.8 policy: up to FetchWidth instructions per
//     cycle from up to FetchThreads threads, favouring threads with the
//     fewest instructions in the pre-issue pipeline stages.
//   - Fetched instructions claim a reorder-window slot (scoreboard entry), an
//     integer or floating-point renaming register, and a slot in the shared
//     integer or floating-point instruction queue. Exhaustion of any of these
//     is recorded as a conflict on that resource.
//   - Issue selects ready instructions oldest-first from each queue, limited
//     by functional unit availability (integer ALUs, floating-point units,
//     load/store units) and total issue width; a ready instruction denied a
//     unit records a conflict on that unit class. FDIV occupies its unit
//     non-pipelined; everything else is fully pipelined.
//   - Loads and stores probe the shared DTLB/L1D/L2/memory hierarchy at
//     issue; the access latency determines completion time.
//   - Branches consult the shared gshare predictor at fetch. A mispredicted
//     branch stops the thread's fetch until the branch resolves, plus a
//     pipeline-refill penalty.
//   - Instructions retire in order per thread, freeing window slots and
//     renaming registers.
//
// Contexts are attached to instruction streams (see internal/trace) by the
// jobscheduler; detaching a context squashes its in-flight instructions and
// reports the sequence number to resume from, so a job's execution replays
// exactly regardless of how it is timesliced.
//
// # Implementation
//
// The kernel is organised for throughput (DESIGN.md §12). Pipeline state
// lives in two flat, index-addressed slices of records: one slot per window
// entry, at the global window index gi = ctx<<winShift | ring index, and one
// thread per hardware context. Queues, the readiness wheel and wakeup lists
// refer to entries by index, never by pointer, and the hot loops take one
// pointer per record they touch. Fetch reads each thread's instructions in
// place from a small per-context buffer that its Source refills a block at a
// time and Attach empties. What dispatch, unit selection, latency and retire
// need to know about an op comes from a per-Core table built in New, and the
// integer and floating-point halves of the machine are one set of arrays
// indexed by side, so none of them branches on an instruction's op. The
// issue stage caches a readiness lower bound per queue entry (and per window
// slot, so dependants of queued producers inherit transitively tight
// bounds); an entry waits on a readiness wheel until its bound arrives and
// only then joins its queue's eligibility set, so a scan examines only
// entries that can act, and within a scan it passes over every entry whose
// functional-unit class it has already found fully busy. Completion is a
// comparison, not an event: an issued entry records its completion cycle,
// and it is done once the clock reaches it. A completion can matter in only
// three ways, each settled when the instruction issues: it lets the window
// head retire, it makes a dependant ready (the wakeup edges push its cycle),
// or it resolves a mispredicted branch (issue sets the thread's fetch
// restart). On top of that, Run detects quiescent cycles — no fetch, issue
// or retirement, and no thread state change — and jumps directly to the
// next event (a window head's completion, an entry whose producers have all
// issued coming due, a fetch-stall expiry, or a functional-unit release),
// attributing every skipped cycle the exact per-resource conflict pattern the
// quiescent cycle latched. All of this is observably equivalent to stepping
// cycle by cycle; the golden suite in golden_test.go pins that equivalence
// bit for bit, and skip_test.go checks it against step() on generated
// scripts.
package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"symbios/internal/arch"
	"symbios/internal/branch"
	"symbios/internal/cache"
	"symbios/internal/counters"
	"symbios/internal/trace"
)

// Source supplies a thread's dynamic instruction stream in blocks: Fill
// writes instructions seq, seq+1, ... into out. Each instruction must be a
// pure function of its sequence number (see internal/trace), so a block may
// be generated ahead of fetch, retried, or regenerated after a detach.
type Source interface {
	Fill(seq uint64, out []trace.Inst)
}

// SyncGate coordinates SYNC (barrier) instructions between threads of a
// multithreaded job. TryPass is called when a thread is about to fetch past
// barrier number idx; it must be idempotent and return true once every
// sibling thread has arrived at idx.
type SyncGate interface {
	TryPass(thread int, idx uint64) bool
}

const noSeq = math.MaxUint64

// qent is a queue reference to a window entry; the entry's readiness bound
// lives in its slot record, Core.u[gi].ready.
type qent struct {
	gi  int32     // global window index
	cls unitClass // the functional-unit class the instruction issues to
}

// unitClass indexes the functional-unit classes. Core.busy[cls] holds the
// class's units, and a denial latches conflict counters.IntUnits+cls (the
// counters list the three unit classes in this order).
type unitClass uint8

const (
	clsInt unitClass = iota
	clsFP
	clsLS
	numClasses
)

// bit returns cls's bit in a set of classes and, shifted by
// counters.IntUnits, its conflict bit.
func (cls unitClass) bit() uint32 { return 1 << cls }

// side indexes the integer and floating-point halves of the machine: each
// has its own rename register pool and instruction queue, and the counters
// list their conflicts in this order (IQ then FQ, IntRegs then FPRegs).
const (
	sideInt = iota
	sideFP
	numSides
)

// opInfo is what the pipeline needs to know about an op, looked up from a
// per-Core table instead of branched on: the table is built once from the
// configuration, so dispatch, unit selection, latency and retire index it.
type opInfo struct {
	side   int       // sideInt or sideFP: rename registers and queue
	cls    unitClass // functional-unit class it issues to
	mem    bool      // probes the data hierarchy at issue
	lat    uint64    // latency; for a memory op, 0 means the probe's latency
	occupy uint64    // cycles it holds its unit: FDIV is not pipelined
	latMin uint64    // lower bound on its latency, for dependant wake-up bounds
}

const wheelSize = 1024 // readiness-wheel buckets; further bounds park at its far edge

// maxContexts bounds arch.Config.Contexts: fetch ranks the live contexts in
// a fixed array of this size.
const maxContexts = 16

// fetchBufLen is the number of instructions a context's supply buffer holds.
const fetchBufLen = 16

// fetchBuf is a hardware context's window onto its source: instructions
// [seq, seq+n) of the attached stream, n == 0 while nothing is buffered.
// Fetch reads instructions in place and refills when it runs off the end; a
// seq retried after a line fill, a full window or a structural latch is
// simply still here.
type fetchBuf struct {
	seq uint64
	n   int
	in  [fetchBufLen]trace.Inst
}

// slot is one window entry's pipeline state. Slots hold stale contents from
// earlier attachments (exactly like the recycled window rings they
// replace); every read is guarded by a seq or generation check.
type slot struct {
	seq    uint64
	dep1   uint64 // producers' sequence numbers, or noSeq
	dep2   uint64
	addr   uint64
	doneAt uint64 // completion cycle once issued, 0 while queued
	// ready caches the entry's readiness bound while queued. It is exact —
	// the max of the producers' completion cycles — once pending hits zero;
	// until then it is a lower bound and the issue scan re-polls on expiry.
	ready uint64
	// gen stamps the attach generation that dispatched the entry, so
	// producer state is only trusted for entries of the current attachment.
	gen  uint32
	qpos int32 // position in its queue while queued

	// Forward wakeup edges: when an instruction issues, it pushes its exact
	// completion cycle to dependants dispatched while it was still queued,
	// instead of each dependant polling its producers. pending counts the
	// entry's unresolved producers. wakeHead heads the producer's waiter
	// list, a singly-linked list of edge ids consumer<<1 | depIndex whose
	// links live in the consumer's wakeNext[depIndex] (each consumer has at
	// most two outgoing edges, so edge storage is preallocated and
	// allocation-free).
	wakeHead int32
	wakeNext [2]int32
	parkNext int32 // next entry in the same readiness bucket

	op      trace.Op
	mispred bool
	pending uint8
}

// thread is one hardware context's state. Attach and Detach rebuild it
// whole; only gen carries over.
type thread struct {
	src       Source
	gate      SyncGate
	id        int
	live      bool
	seq       uint64 // next instruction to fetch
	committed uint64 // instructions retired since attach
	headSeq   uint64 // seq of the oldest in-flight instruction
	head      int    // ring index of oldest
	count     int
	unissued  int    // ICOUNT: fetched but not yet issued
	stall     uint64 // fetch stalled until this cycle (icache miss, refill)
	wait      uint64 // seq of unresolved mispredicted branch, or noSeq
	barrier   uint64 // barrier index the thread is blocked on, or noSeq
	curLine   uint64 // last icache line fetched (1 + line address; 0 = none)
	gen       uint32 // attach generation; survives detach
	buf       fetchBuf
}

// Core is the simulated SMT processor. Per-instruction state is one slot
// record per global window index gi = ctx<<winShift | ring index, and
// per-context state one thread record per ctx; both slices are allocated
// once in New and recycled across Attach/Detach, so steady-state simulation
// performs no allocation.
type Core struct {
	cfg arch.Config
	mem *cache.Hierarchy
	bp  *branch.Predictor

	winShift int // log2(WindowSize)
	winMask  int // WindowSize-1

	u []slot   // indexed by gi
	t []thread // indexed by ctx

	liveCount int

	ops         [trace.NumOps]opInfo
	opCommitted [trace.NumOps]uint64 // retired instructions per op

	q [numSides]queue

	// The readiness wheel parks each queued entry that is not yet eligible
	// in the bucket of its readiness bound (or the wheel's far edge): a
	// bucket is a list threaded through the slots' parkNext, headed by
	// readyHead (-1 when empty). issue drains the current cycle's bucket
	// into the queues' eligibility sets, re-parking entries whose bound a
	// wakeup raised; skipAhead drains every bucket it jumps over, and Detach
	// unlinks the squashed context's entries.
	readyHead [wheelSize]int32
	parked    int // entries on the readiness wheel

	regsFree [numSides]int

	busy [numClasses][]uint64 // busy-until cycle per unit

	cycle uint64
	ctr   counters.Set

	// per-cycle conflict latches, bit r = counters.Resource r
	conf uint32

	// skipOK gates quiescent-cycle jumps: under round-robin fetch with >1
	// thread the fetch priority rotates with the cycle number, so repeated
	// cycles are not guaranteed identical and skipping would be unsound.
	skipOK bool

	lineMask uint64

	work Work
}

// Work counts what the kernel did to simulate, as opposed to what the
// modelled machine did. The simulator is deterministic, so for a fixed run
// every count is exact: a change that raises one does more work for the
// same answer. The counters are bumped at coarse points only (once per
// step, issue scan, fill and skip-ahead) and never feed the model.
type Work struct {
	Steps    uint64 `json:"steps"`    // cycles stepped one at a time
	Skipped  uint64 `json:"skipped"`  // cycles jumped over by skip-ahead
	Scans    uint64 `json:"scans"`    // issue-queue scans
	Examined uint64 `json:"examined"` // queue entries those scans examined
	Issued   uint64 `json:"issued"`   // instructions issued
	Fills    uint64 `json:"fills"`    // Source.Fill calls
	Probes   uint64 `json:"probes"`   // L1I, L1D, L2 and DTLB lookups
}

// Work returns the kernel's work counts since New. It is for tests and
// diagnostics; no simulated result depends on it.
func (c *Core) Work() Work {
	w := c.work
	w.Probes = c.mem.L1I.Stats().Accesses() + c.mem.L1D.Stats().Accesses() +
		c.mem.L2.Stats().Accesses() + c.mem.DTLB.Stats().Accesses()
	return w
}

// New constructs a core for cfg. The memory hierarchy and branch predictor
// are created cold.
func New(cfg arch.Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ops := opTable(cfg)
	if lo, hi := latencyRange(cfg, &ops); lo < 1 || hi >= wheelSize {
		return nil, fmt.Errorf("cpu: execution latencies span [%d, %d]; the kernel supports [1, %d]", lo, hi, wheelSize-1)
	}
	if cfg.WindowSize&(cfg.WindowSize-1) != 0 {
		return nil, fmt.Errorf("cpu: WindowSize %d must be a power of two", cfg.WindowSize)
	}
	if cfg.Contexts > maxContexts {
		return nil, fmt.Errorf("cpu: %d contexts exceed the supported maximum %d", cfg.Contexts, maxContexts)
	}
	n := cfg.Contexts
	c := &Core{
		cfg:      cfg,
		mem:      cache.NewHierarchy(cfg),
		bp:       branch.New(cfg.BranchPHTBits, cfg.BranchHistBits, n),
		winShift: bits.TrailingZeros(uint(cfg.WindowSize)),
		winMask:  cfg.WindowSize - 1,
		u:        make([]slot, n*cfg.WindowSize),
		t:        make([]thread, n),
		q:        newQueues(cfg.IntQueue, cfg.FPQueue),
		regsFree: [numSides]int{cfg.IntRenameRegs, cfg.FPRenameRegs},
		busy: [numClasses][]uint64{
			make([]uint64, cfg.IntALUs), make([]uint64, cfg.FPUnits), make([]uint64, cfg.LSUnits)},
		lineMask: ^uint64(cfg.L1ILineBytes - 1),
	}
	c.ops = ops
	for i := range c.readyHead {
		c.readyHead[i] = -1
	}
	c.updateSkipOK()
	return c, nil
}

// opTable describes every op under cfg. latMin is the lower bound on an
// op's latency used for dependant wake-up bounds: a LOAD can never beat an
// L1 hit, and a STORE completes in one cycle through the write buffer. New
// rejects configurations under which any latency is below one cycle (see
// latencyRange), so every bound is at least one.
func opTable(cfg arch.Config) [trace.NumOps]opInfo {
	alu := func(cls unitClass, side, lat int) opInfo {
		return opInfo{side: side, cls: cls, lat: uint64(lat), occupy: 1, latMin: uint64(lat)}
	}
	var t [trace.NumOps]opInfo
	t[trace.IALU] = alu(clsInt, sideInt, cfg.IntALULatency)
	t[trace.SYNC] = alu(clsInt, sideInt, cfg.IntALULatency)
	t[trace.IMUL] = alu(clsInt, sideInt, cfg.IntMulLatency)
	t[trace.BRANCH] = alu(clsInt, sideInt, cfg.BranchLatency)
	t[trace.FADD] = alu(clsFP, sideFP, cfg.FPAddLatency)
	t[trace.FMUL] = alu(clsFP, sideFP, cfg.FPMulLatency)
	t[trace.FDIV] = alu(clsFP, sideFP, cfg.FPDivLatency)
	t[trace.FDIV].occupy = t[trace.FDIV].lat // the divider is not pipelined
	t[trace.LOAD] = opInfo{side: sideInt, cls: clsLS, mem: true, occupy: 1, latMin: uint64(cfg.L1DHitLatency)}
	t[trace.STORE] = opInfo{side: sideInt, cls: clsLS, mem: true, lat: 1, occupy: 1, latMin: 1}
	return t
}

// latencyRange returns the smallest and largest execution latency of any op
// under cfg: the table's fixed latencies and the data path's, from an L1
// hit to a TLB miss that goes to memory. New requires the range within
// [1, wheelSize-1]. The lower end is the model's: an instruction completes
// after the cycle it issues in, so a dependant never issues in the same
// cycle as its producer, and doneAt is never the 0 that marks a queued
// entry. The upper end is the range New has always accepted; nothing in
// the kernel needs it any more (a far readiness bound parks at the wheel's
// edge), but it keeps the set of accepted configurations unchanged.
func latencyRange(cfg arch.Config, ops *[trace.NumOps]opInfo) (lo, hi int) {
	lo, hi = cfg.L1DHitLatency, cfg.L1DHitLatency
	for _, p := range []int{cfg.TLBMissPenalty, cfg.L2HitLatency, cfg.MemLatency} {
		lo, hi = lo+min(p, 0), hi+max(p, 0)
	}
	for _, op := range ops {
		if op.lat != 0 || !op.mem {
			lo, hi = min(lo, int(op.lat)), max(hi, int(op.lat))
		}
	}
	return lo, hi
}

func (c *Core) updateSkipOK() {
	c.skipOK = c.cfg.FetchPolicy != arch.FetchRoundRobin || c.liveCount <= 1
}

// Config returns the architecture configuration.
func (c *Core) Config() arch.Config { return c.cfg }

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// Mem exposes the memory hierarchy (for warmup and diagnostics).
func (c *Core) Mem() *cache.Hierarchy { return c.mem }

// Attach binds src to hardware context ctx, starting at startSeq. gate may
// be nil for single-threaded jobs; threadID is the identifier passed to the
// gate for barrier coordination. Attach panics if the context is occupied or
// out of range, which indicates a scheduler bug.
func (c *Core) Attach(ctx int, src Source, startSeq uint64, gate SyncGate, threadID int) {
	if ctx < 0 || ctx >= len(c.t) {
		panic(fmt.Sprintf("cpu: Attach to context %d of %d", ctx, len(c.t)))
	}
	t := &c.t[ctx]
	if t.live {
		panic(fmt.Sprintf("cpu: context %d already occupied", ctx))
	}
	*t = thread{src: src, gate: gate, id: threadID, live: true, seq: startSeq, headSeq: startSeq,
		wait: noSeq, barrier: noSeq, gen: t.gen + 1}
	c.liveCount++
	c.updateSkipOK()
	c.bp.ResetHistory(ctx)
}

// Detach removes the thread on ctx, squashing its in-flight instructions,
// and returns the sequence number at which the job should later resume (the
// oldest unretired instruction) along with the number of instructions it
// committed while attached.
func (c *Core) Detach(ctx int) (resumeSeq, committed uint64) {
	t := &c.t[ctx]
	if !t.live {
		panic(fmt.Sprintf("cpu: Detach of idle context %d", ctx))
	}
	// Reclaim rename registers held by in-flight instructions.
	base := ctx << c.winShift
	for i := 0; i < t.count; i++ {
		c.regsFree[c.ops[c.u[base|((t.head+i)&c.winMask)].op].side]++
	}
	// Purge queue entries belonging to this context and unlink those parked
	// on the readiness wheel.
	for side := range c.q {
		c.q[side].purge(ctx, c.winShift, c.u)
	}
	c.unpark(ctx)
	resume, n := t.headSeq, t.committed
	*t = thread{gen: t.gen} // drops the source and gate references until reuse
	c.liveCount--
	c.updateSkipOK()
	return resume, n
}

// Occupied reports whether context ctx has a thread attached.
func (c *Core) Occupied(ctx int) bool { return c.t[ctx].live }

// ThreadCommitted returns instructions committed by the thread on ctx since
// it was attached.
func (c *Core) ThreadCommitted(ctx int) uint64 {
	if t := &c.t[ctx]; t.live {
		return t.committed
	}
	return 0
}

// Snapshot returns the current counter totals, including memory-system and
// branch-predictor counters.
func (c *Core) Snapshot() counters.Set {
	s := c.ctr
	s.Cycles = c.cycle
	n := &c.opCommitted
	s.IntCommitted = n[trace.IALU] + n[trace.IMUL] + n[trace.BRANCH] + n[trace.SYNC]
	s.FPCommitted = n[trace.FADD] + n[trace.FMUL] + n[trace.FDIV]
	s.LoadCommitted = n[trace.LOAD]
	s.StoreCommitted = n[trace.STORE]
	s.BranchCommitted = n[trace.BRANCH]
	l1d, l1i, l2, tlb := c.mem.L1D.Stats(), c.mem.L1I.Stats(), c.mem.L2.Stats(), c.mem.DTLB.Stats()
	s.L1DHits, s.L1DMisses = l1d.Hits, l1d.Misses
	s.L1IHits, s.L1IMisses = l1i.Hits, l1i.Misses
	s.L2Hits, s.L2Misses = l2.Hits, l2.Misses
	s.TLBHits, s.TLBMisses = tlb.Hits, tlb.Misses
	s.BranchPredicts, s.BranchMispredicts = c.bp.Stats()
	return s
}

// Run simulates n cycles. Quiescent stretches — cycles that provably repeat
// the previous cycle's (non-)activity — are jumped in one step with exact
// counter attribution; see skipAhead.
func (c *Core) Run(n uint64) {
	target := c.cycle + n
	for c.cycle < target {
		if c.step() && c.skipOK {
			c.skipAhead(target)
		}
	}
}

// step advances the core by one cycle and reports whether the cycle was
// quiescent: no instruction retired, issued, or fetched, and no thread
// fetch state changed. After a quiescent cycle the core is at a fixed point
// that only an already-scheduled event can disturb.
func (c *Core) step() bool {
	c.cycle++
	c.work.Steps++
	c.conf = 0

	quiet := c.retire() == 0
	quiet = c.issue() == 0 && quiet
	fetched, mutated := c.fetch()
	quiet = fetched == 0 && !mutated && quiet

	m := c.conf
	for m != 0 {
		c.ctr.ConflictCycles[bits.TrailingZeros32(m)]++
		m &= m - 1
	}
	return quiet
}

// skipAhead jumps from the just-executed quiescent cycle to the next cycle
// at which anything can change, bounded by target. Each skipped cycle
// increments exactly the conflict counters the quiescent cycle latched —
// which is what stepping would have done, because a quiescent core re-latches
// the identical pattern until one of the bounding events fires:
//
//   - a live thread's window head completes (retire resumes; the quiescent
//     cycle retired nothing, so the head is queued or still executing);
//   - a readiness bucket makes eligible an entry whose producers have all
//     issued, so its bound is exact and it may issue;
//   - a fetch-stall expiry on a live thread, including a mispredicted
//     branch's fetch restart, which issue set;
//   - a functional-unit release, when the quiescent cycle latched a unit
//     denial (only the denied classes can act before any other event).
//
// A completion below the head is none of these: its dependants wait on
// their readiness buckets. An entry with a producer still queued
// (pending != 0) may come due without bounding the jump: until an issue,
// retire or dispatch changes what its poll reads, the poll can only
// re-park it. Barrier-blocked threads need no bound: TryPass is idempotent
// and its verdict can only flip when a sibling progresses, which requires
// one of the events above.
func (c *Core) skipAhead(target uint64) {
	cyc := c.cycle
	if target <= cyc+1 {
		return
	}
	event := target
	for i := range c.t {
		t := &c.t[i]
		if !t.live {
			continue
		}
		if t.stall > cyc && t.stall < event {
			event = t.stall
		}
		if t.count > 0 {
			if d := c.u[i<<c.winShift|t.head].doneAt; d > cyc && d < event {
				event = d
			}
		}
	}
	for cls, busy := range c.busy {
		if c.conf>>counters.IntUnits&unitClass(cls).bit() != 0 {
			event = minBusy(event, cyc, busy)
		}
	}
	// Draining a bucket ahead of its cycle is what that cycle's issue would
	// do first; the jump stops at the first bucket that can lead to an issue.
	for t := cyc + 1; t < event && c.parked > 0; t++ {
		if c.drainReady(t) {
			event = t
		}
	}
	if event <= cyc+1 {
		return
	}
	skip := event - 1 - cyc
	c.cycle = event - 1
	c.work.Skipped += skip
	m := c.conf
	for m != 0 {
		c.ctr.ConflictCycles[bits.TrailingZeros32(m)] += skip
		m &= m - 1
	}
}

// minBusy lowers event to the earliest unit release after cyc.
func minBusy(event, cyc uint64, busy []uint64) uint64 {
	for _, b := range busy {
		if b > cyc && b < event {
			event = b
		}
	}
	return event
}

// retire commits completed instructions in order, per thread, and returns
// the number retired.
func (c *Core) retire() int {
	retired := 0
	for ctx := range c.t {
		t := &c.t[ctx]
		if !t.live {
			continue
		}
		base := ctx << c.winShift
		head, count := t.head, t.count
		if count == 0 || !c.u[base|head].done(c.cycle) {
			continue
		}
		committed := uint64(0)
		for n := 0; n < c.cfg.RetireWidth && count > 0; n++ {
			u := &c.u[base|head]
			if !u.done(c.cycle) {
				break
			}
			op := u.op
			c.regsFree[c.ops[op].side]++
			c.opCommitted[op]++
			committed++
			head = (head + 1) & c.winMask
			count--
		}
		if committed > 0 {
			c.ctr.Committed += committed
			t.committed += committed
			t.headSeq += committed
			t.head = head
			t.count = count
			retired += int(committed)
		}
	}
	return retired
}

// done reports whether u has issued and its completion cycle has arrived.
func (u *slot) done(cycle uint64) bool { return u.doneAt != 0 && u.doneAt <= cycle }

// producer returns the window entry that holds producer sequence p of the
// thread on ctx, or nil if p is absent, retired or pre-attach, or was
// squashed by a detach and never re-fetched under this attachment: either
// way its value is architecturally available.
func (c *Core) producer(ctx int, t *thread, p uint64) *slot {
	if p == noSeq || p < t.headSeq {
		return nil
	}
	u := &c.u[ctx<<c.winShift|(t.head+int(p-t.headSeq))&c.winMask]
	if u.seq != p {
		return nil
	}
	return u
}

// depAvail returns the earliest cycle producer sequence p of thread ctx
// could be complete: 0 if it is architecturally available, its completion
// cycle (past or future) once issued, or a lower bound if still queued.
// consumerSide tells which queue the consumer sits in, which determines
// whether a queued producer could still issue in the current cycle (the
// integer queue is scanned before the floating-point queue).
func (c *Core) depAvail(ctx int, t *thread, p uint64, consumerSide int) uint64 {
	u := c.producer(ctx, t, p)
	if u == nil {
		return 0
	}
	if u.doneAt != 0 {
		return u.doneAt
	}
	// Still queued: it must issue and execute first. For a producer
	// dispatched by the current attachment the bound compounds the
	// producer's own cached readiness bound with its minimum latency —
	// exact enough that dependence chains wake when they can actually
	// issue. A stale seq-colliding slot from an earlier attachment has no
	// trustworthy bound; it is re-polled shortly, as the pre-SoA kernel
	// polled every queued producer.
	if u.gen != t.gen {
		return c.cycle + 2
	}
	info := &c.ops[u.op]
	// The producer can issue this cycle at the earliest — or next cycle if
	// its queue's scan already passed it (same queue as the consumer, or
	// the integer queue seen from a floating-point consumer).
	base := c.cycle
	if consumerSide == sideFP || info.side == sideInt {
		base++
	}
	if u.ready > base {
		base = u.ready
	}
	return base + info.latMin
}

// availAt returns the earliest cycle u's producers could all be complete;
// u is an entry of the thread on ctx.
func (c *Core) availAt(ctx int, u *slot, consumerSide int) uint64 {
	t := &c.t[ctx]
	a := c.depAvail(ctx, t, u.dep1, consumerSide)
	if u.dep2 != noSeq {
		if b := c.depAvail(ctx, t, u.dep2, consumerSide); b > a {
			a = b
		}
	}
	return a
}

// latency returns u's execution latency. A memory op probes the
// hierarchy; a store's probe is for contention accounting only, since the
// write buffer lets dependants proceed after its table latency of one cycle.
func (c *Core) latency(u *slot, info *opInfo) uint64 {
	if !info.mem {
		return info.lat
	}
	lat, _ := c.mem.DataAccess(u.addr)
	if info.lat != 0 {
		return info.lat
	}
	return uint64(lat)
}

// issue selects ready instructions from the queues, oldest first, and
// returns the number issued. Each queue's scan examines only the entries
// in its eligibility set, which this cycle's readiness bucket has just
// topped up.
func (c *Core) issue() int {
	c.drainReady(c.cycle)
	budget := c.cfg.IssueWidth
	issued := 0
	for side := range c.q {
		if budget == 0 {
			break
		}
		var n int
		budget, n = c.issueQueue(side, budget)
		issued += n
	}
	return issued
}

// queueHolds is the set of unit classes each queue's entries issue to.
var queueHolds = [numSides]uint32{clsInt.bit() | clsLS.bit(), clsFP.bit()}

// issueQueue scans one queue's eligible entries, oldest first, and returns
// the remaining issue budget and the number issued.
//
// An entry outside the eligibility set has ready > cycle, and all a scan
// ever did with such an entry was note its bound as the next time a scan
// was worth running. Every effect a scan has — the order of issue, unit
// denials and the conflict bits they latch, polls that update ready —
// comes from entries with ready <= cycle, visited in age order. The set
// holds all of those in the same order (and possibly entries whose bound a
// wakeup has since raised, which are re-parked on sight), so scanning only
// the set has the same effects as scanning the whole queue.
//
// spent collects the classes this scan has found fully busy. Units'
// busy-until cycles only rise within a scan, so such a verdict cannot flip
// before the scan ends, and a later entry of a spent class could only latch
// the conflict bit the first denial already latched or tighten a polled
// bound that the next visit re-derives from current state anyway. Both are
// no-ops, so the scan passes over such entries without loading their state
// and stops once every class the queue holds is spent.
func (c *Core) issueQueue(side, budget int) (int, int) {
	q := &c.q[side]
	holds := queueHolds[side]
	cyc := c.cycle
	issued, examined := 0, 0
	var spent uint32
scan:
	for w := 0; w<<6 < q.hi; w++ {
		for m := q.elig[w]; m != 0; m &= m - 1 {
			if budget == 0 {
				break scan
			}
			p := w<<6 | bits.TrailingZeros64(m)
			e := q.ent[p]
			examined++
			cls := e.cls
			if cls.bit()&spent != 0 {
				continue
			}
			gi := e.gi
			u := &c.u[gi]
			if u.ready > cyc {
				// A wakeup raised the bound after the entry became eligible.
				q.clearElig(p)
				c.park(gi, u.ready, cyc)
				continue
			}
			ctx := int(gi) >> c.winShift
			if u.pending != 0 {
				// Some producer is unresolved (squashed-slot collision or a
				// stale bound): fall back to polling, exactly as the pre-SoA
				// kernel polled every queued producer.
				if avail := c.availAt(ctx, u, side); avail > cyc {
					u.ready = avail
					q.clearElig(p)
					c.park(gi, avail, cyc)
					continue
				}
			}
			busy := c.busy[cls]
			unit := -1
			for k := range busy {
				if busy[k] <= cyc {
					unit = k
					break
				}
			}
			if unit < 0 {
				c.conf |= cls.bit() << counters.IntUnits
				if spent |= cls.bit(); spent == holds {
					break scan
				}
				continue
			}
			info := &c.ops[u.op]
			lat := c.latency(u, info)
			busy[unit] = cyc + info.occupy
			done := cyc + lat
			u.doneAt = done
			t := &c.t[ctx]
			t.unissued--
			if u.mispred {
				// The branch resolves at done; fetch restarts after the
				// refill penalty.
				t.wait = noSeq
				t.stall = done + uint64(c.cfg.MispredictPenalty)
			}
			// Wake dependants: they now know this producer's exact completion.
			for eid := u.wakeHead; eid >= 0; {
				cons := &c.u[eid>>1]
				cons.pending--
				if done > cons.ready {
					cons.ready = done
				}
				eid = cons.wakeNext[eid&1]
			}
			u.wakeHead = -1
			q.remove(p)
			issued++
			budget--
		}
	}
	if examined > 0 {
		c.work.Scans++
		c.work.Examined += uint64(examined)
		c.work.Issued += uint64(issued)
	}
	return budget, issued
}

// park puts queued entry gi on the readiness wheel at cycle at (> now), or
// at the wheel's far edge, where draining re-parks it.
func (c *Core) park(gi int32, at, now uint64) {
	if at-now >= wheelSize {
		at = now + wheelSize - 1
	}
	h := &c.readyHead[at&(wheelSize-1)]
	c.u[gi].parkNext = *h
	*h = gi
	c.parked++
}

// drainReady processes cycle t's readiness bucket: each entry whose bound
// has arrived joins its queue's eligibility set, and one whose bound a
// wakeup raised is parked again at the new bound. It reports whether an
// entry whose producers have all issued joined a set.
func (c *Core) drainReady(t uint64) (woke bool) {
	h := &c.readyHead[t&(wheelSize-1)]
	gi := *h
	if gi < 0 {
		return false
	}
	// Re-parking never lands in bucket t (park keeps at within t+1 and
	// t+wheelSize-1), so the bucket can be emptied before it is walked.
	*h = -1
	for gi >= 0 {
		u := &c.u[gi]
		next := u.parkNext
		c.parked--
		if u.ready > t {
			c.park(gi, u.ready, t)
		} else {
			c.q[c.ops[u.op].side].setElig(u.qpos)
			woke = woke || u.pending == 0
		}
		gi = next
	}
	return woke
}

// unpark removes context ctx's entries from the readiness wheel.
func (c *Core) unpark(ctx int) {
	for b := 0; b < wheelSize && c.parked > 0; b++ {
		link := &c.readyHead[b]
		for gi := *link; gi >= 0; gi = *link {
			if u := &c.u[gi]; int(gi)>>c.winShift == ctx {
				*link = u.parkNext
				c.parked--
			} else {
				link = &u.parkNext
			}
		}
	}
}

// fetch implements the fetch stage (ICOUNT.2.8 by default) plus rename and
// dispatch. It returns the number of instructions fetched and whether any
// thread fetch state changed without a fetch (icache line fill started,
// barrier entered or passed) — either makes the cycle non-quiescent.
func (c *Core) fetch() (int, bool) {
	var order [maxContexts]int
	n := 0
	for ctx := range c.t {
		if c.t[ctx].live {
			order[n] = ctx
			n++
		}
	}
	if c.cfg.FetchPolicy == arch.FetchRoundRobin {
		// Rotate priority by cycle, ignoring pipeline occupancy.
		if n > 1 {
			k := int(c.cycle) % n
			var rot [maxContexts]int
			for i := 0; i < n; i++ {
				rot[i] = order[(i+k)%n]
			}
			order = rot
		}
	} else {
		// Insertion sort by unissued count (ICOUNT); context count is tiny.
		for i := 1; i < n; i++ {
			for j := i; j > 0; j-- {
				if c.t[order[j]].unissued < c.t[order[j-1]].unissued {
					order[j-1], order[j] = order[j], order[j-1]
				} else {
					break
				}
			}
		}
	}

	budget := c.cfg.FetchWidth
	threadsUsed := 0
	fetched := 0
	mutated := false
	for i := 0; i < n && budget > 0 && threadsUsed < c.cfg.FetchThreads; i++ {
		got, attempted, mut := c.fetchThread(order[i], budget)
		budget -= got
		fetched += got
		mutated = mutated || mut
		if attempted {
			threadsUsed++
		}
	}
	return fetched, mutated
}

// fetchThread fetches up to max instructions for ctx. It returns how many
// were fetched, whether the thread consumed a fetch port, and whether any
// fetch state mutated.
func (c *Core) fetchThread(ctx, max int) (fetched int, attempted, mutated bool) {
	cyc := c.cycle
	t := &c.t[ctx]
	if t.stall > cyc || t.wait != noSeq {
		return 0, false, false
	}
	if t.barrier != noSeq {
		if !t.gate.TryPass(t.id, t.barrier) {
			return 0, false, false
		}
		t.barrier = noSeq
		t.seq++ // consume the SYNC marker
		mutated = true
	}
	base := ctx << c.winShift
	buf := &t.buf
	seq := t.seq
	head, count := t.head, t.count
	curLine := t.curLine

	for fetched < max {
		if count > c.winMask { // window full
			c.conf |= 1 << counters.Scoreboard
			break
		}
		k := seq - buf.seq
		if k >= uint64(buf.n) {
			t.src.Fill(seq, buf.in[:])
			c.work.Fills++
			buf.seq, buf.n, k = seq, fetchBufLen, 0
		}
		in := &buf.in[k%fetchBufLen] // k < n <= fetchBufLen; the modulus only drops the bounds check

		if in.Op == trace.SYNC {
			idx := in.Seq // barrier ordinal is encoded in Seq by the workload wrapper
			if t.gate == nil || t.gate.TryPass(t.id, idx) {
				seq++
				fetched++ // a consumed barrier occupies a fetch slot
				continue
			}
			t.barrier = idx
			mutated = true
			break
		}

		attempted = true

		// Instruction cache.
		line := in.PC&c.lineMask + 1
		if line != curLine {
			if stall := c.mem.InstAccess(in.PC); stall > 0 {
				t.stall = cyc + uint64(stall)
				curLine = line // the miss fills the line
				mutated = true
				break
			}
			curLine = line
			mutated = true
		}

		// Rename register, then instruction queue slot, on the op's side.
		info := &c.ops[in.Op]
		side := info.side
		if c.regsFree[side] == 0 {
			c.conf |= 1 << (counters.IntRegs + counters.Resource(side))
			break
		}
		q := &c.q[side]
		if q.full() {
			c.conf |= 1 << (counters.IQ + counters.Resource(side))
			break
		}

		// All resources available: dispatch.
		gi := int32(base | (head+count)&c.winMask)
		// Every field is written in place: a composite literal would build
		// the record in a stack temporary and block-copy it over.
		u := &c.u[gi]
		u.seq = seq
		u.dep1 = depSeq(seq, in.Dep1)
		u.dep2 = depSeq(seq, in.Dep2)
		u.addr = in.Addr
		u.doneAt = 0
		u.ready = 0
		u.gen = t.gen
		u.qpos = 0
		u.wakeHead = -1
		u.wakeNext = [2]int32{}
		u.parkNext = 0
		u.op = in.Op
		u.mispred = false
		u.pending = 0
		ready := c.resolveDep(ctx, t, gi, 0, u.dep1, cyc)
		if u.dep2 != noSeq {
			if r2 := c.resolveDep(ctx, t, gi, 1, u.dep2, cyc); r2 > ready {
				ready = r2
			}
		}
		u.ready = ready
		c.regsFree[side]--
		if q.hi == len(q.ent) {
			q.compact(c.u)
		}
		u.qpos = q.push(qent{gi: gi, cls: info.cls})
		// The next scan is next cycle's: eligible if ready by then.
		if ready <= cyc+1 {
			q.setElig(u.qpos)
		} else {
			c.park(gi, ready, cyc)
		}
		count++
		t.unissued++
		seq++
		fetched++
		c.ctr.Fetched++

		if in.Op == trace.BRANCH {
			if correct := c.bp.Lookup(ctx, in.PC, in.Taken); !correct {
				u.mispred = true
				t.wait = u.seq
				break
			}
		}
	}
	t.seq = seq
	t.count = count
	t.curLine = curLine
	return fetched, attempted, mutated
}

// resolveDep computes, at dispatch time, the earliest cycle producer
// sequence p of entry consGi could be complete, registering a wakeup edge
// (depIndex k) when the producer is genuinely queued so the bound is later
// replaced by the producer's exact completion cycle. Squashed-slot
// collisions get a finite bound with no edge; pending stays nonzero,
// keeping the consumer on the issue scan's poll path, which re-derives the
// pre-SoA kernel's verdict from current state at every expiry.
func (c *Core) resolveDep(ctx int, t *thread, consGi int32, k int, p, cyc uint64) uint64 {
	u := c.producer(ctx, t, p)
	if u == nil {
		return 0
	}
	if u.doneAt != 0 {
		return u.doneAt
	}
	cons := &c.u[consGi]
	cons.pending++
	if u.gen != t.gen {
		// Stale queued slot from an earlier attachment: no wakeup will ever
		// fire; poll from a conservative bound.
		return cyc + 2
	}
	cons.wakeNext[k&1] = u.wakeHead
	u.wakeHead = consGi<<1 | int32(k)
	// The producer can issue next cycle at the earliest (fetch runs after
	// issue), or at its own readiness bound; it then executes for at least
	// its class's minimum latency.
	b := cyc + 1
	if u.ready > b {
		b = u.ready
	}
	return b + c.ops[u.op].latMin
}

// depSeq converts a producer distance to an absolute sequence number.
func depSeq(seq uint64, dist uint32) uint64 {
	if dist == 0 {
		return noSeq
	}
	d := uint64(dist)
	if d > seq {
		return noSeq
	}
	return seq - d
}
