package cpu

// Per-stage microbenchmarks. Each one drives a single pipeline stage on
// fabricated steady-state pipeline state (re-primed off the clock as the stage
// drains it), so a throughput regression localizes to fetch, issue, or
// retire instead of hiding inside the whole-cycle number.

import (
	"testing"

	"symbios/internal/arch"
	"symbios/internal/trace"
)

// BenchmarkFetch measures the fetch/rename/dispatch stage: two threads of
// real generated instruction stream, with the downstream pipeline drained
// off the clock every cycle so fetch never stalls on a full window or
// queue.
func BenchmarkFetch(b *testing.B) {
	cfg := arch.Default21264(2)
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c.Attach(0, mkSource(b, "GCC", 11, 0), 0, nil, 0)
	c.Attach(1, mkSource(b, "FP", 12, 1), 0, nil, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Drain the pipeline: empty queues and the readiness wheel, free
		// registers and window slots, clear stalls. A handful of stores
		// per instruction, dwarfed by the fetch work itself.
		for side := range c.q {
			emptyQueue(&c.q[side])
		}
		unparkLastFetch(c)
		c.regsFree = [numSides]int{cfg.IntRenameRegs, cfg.FPRenameRegs}
		for ctx := range c.t {
			t := &c.t[ctx]
			t.count, t.unissued = 0, 0
			t.stall, t.wait = 0, noSeq
		}
		c.conf = 0
		c.fetch()
		c.cycle++
	}
}

// BenchmarkIssue measures the issue stage over a full integer queue of
// ready instructions; the queue is re-primed once the scan drains it.
func BenchmarkIssue(b *testing.B) {
	cfg := arch.Default21264(1)
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	c.t[0].live = true
	c.t[0].gen = 1
	prime := func() {
		q := &c.q[sideInt]
		emptyQueue(q)
		for k := 0; k < cfg.IntQueue; k++ {
			gi := int32(k)
			u := &c.u[gi]
			*u = slot{op: trace.IALU, wakeHead: -1}
			u.qpos = q.push(qent{gi: gi, cls: clsInt})
			q.setElig(u.qpos)
		}
		c.t[0].unissued = cfg.IntQueue
		for k := range c.busy[clsInt] {
			c.busy[clsInt][k] = 0
		}
	}
	prime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.conf = 0
		c.issue()
		c.cycle++
		if c.q[sideInt].n < cfg.IssueWidth {
			b.StopTimer()
			prime()
			b.StartTimer()
		}
	}
}

// BenchmarkRetire measures the in-order retire stage over a window full of
// completed instructions; the window is refilled once it empties.
func BenchmarkRetire(b *testing.B) {
	cfg := arch.Default21264(1)
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	t := &c.t[0]
	t.live = true
	// Every entry completed on the current cycle, so every one can retire.
	c.cycle = 1
	prime := func() {
		for gi := 0; gi < cfg.WindowSize; gi++ {
			c.u[gi].op = trace.IALU
			c.u[gi].doneAt = c.cycle
		}
		t.head, t.count = 0, cfg.WindowSize
		t.headSeq, t.committed = 0, 0
		c.regsFree[sideInt] = 0
	}
	prime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.retire() == 0 {
			b.Fatal("a retire pass retired nothing: the primed window is not done")
		}
		if t.count == 0 {
			b.StopTimer()
			prime()
			b.StartTimer()
		}
	}
}

// emptyQueue drops every entry of q.
func emptyQueue(q *queue) {
	q.hi, q.n = 0, 0
	clear(q.elig)
}

// unparkLastFetch empties the readiness wheel after a fetch whose entries
// will never issue: each bucket that fetch parked on holds only its
// entries, so emptying the buckets of its window slots empties the wheel.
func unparkLastFetch(c *Core) {
	prev := c.cycle - 1
	for ctx := range c.t {
		t := &c.t[ctx]
		for i := 0; i < t.count; i++ {
			gi := ctx<<c.winShift | (t.head+i)&c.winMask
			c.readyHead[min(c.u[gi].ready, prev+wheelSize-1)&(wheelSize-1)] = -1
		}
	}
	c.parked = 0
}
