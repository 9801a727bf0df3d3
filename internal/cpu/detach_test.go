package cpu

import (
	"testing"

	"symbios/internal/arch"
	"symbios/internal/trace"
)

// TestDetachInflightPurge detaches a thread at a point where both queues
// hold a mix of contexts and some of the victim's instructions have
// already issued or completed (a partially drained pipeline), and checks
// that purge compacts the queues in place: survivors keep their age order,
// every victim entry is gone, and the rename-register accounting matches
// the survivor's in-flight window exactly.
func TestDetachInflightPurge(t *testing.T) {
	cfg := arch.Default21264(3)
	c := mustCore(t, cfg)
	c.Attach(0, mkSource(t, "GCC", 21, 0), 0, nil, 0)
	c.Attach(1, mkSource(t, "FP", 22, 1), 0, nil, 1)
	c.Attach(2, mkSource(t, "MG", 23, 2), 0, nil, 2)

	// Find a cycle where the victim has entries in both queues while other
	// work is in flight, so the purge exercises the interleaved case.
	countCtx := func(q []qent, ctx int) int {
		n := 0
		for _, e := range q {
			if int(e.gi)>>c.winShift == ctx {
				n++
			}
		}
		return n
	}
	const victim = 1
	found := false
	for i := 0; i < 50_000; i++ {
		c.Run(1)
		if countCtx(c.queued(sideInt), victim) > 0 && countCtx(c.queued(sideFP), victim) > 0 &&
			len(c.queued(sideInt)) > countCtx(c.queued(sideInt), victim) && c.t[victim].count > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("never reached a mixed-queue in-flight state; workload too tame for the test")
	}

	// Expected survivors: the non-victim entries in their current order.
	var wantInt, wantFP []qent
	for _, e := range c.queued(sideInt) {
		if int(e.gi)>>c.winShift != victim {
			wantInt = append(wantInt, e)
		}
	}
	for _, e := range c.queued(sideFP) {
		if int(e.gi)>>c.winShift != victim {
			wantFP = append(wantFP, e)
		}
	}

	resume, committed := c.Detach(victim)
	if resume < committed {
		t.Fatalf("resume seq %d < committed %d", resume, committed)
	}
	check := func(name string, got, want []qent) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries after purge, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: got %+v want %+v (order not preserved)", name, i, got[i], want[i])
			}
		}
		for _, e := range got {
			if int(e.gi)>>c.winShift == victim {
				t.Fatalf("%s still holds victim entry %+v", name, e)
			}
		}
	}
	check("intQ", c.queued(sideInt), wantInt)
	check("fpQ", c.queued(sideFP), wantFP)

	// Register accounting: free counts must equal the totals minus what the
	// surviving windows still hold.
	wantIntFree, wantFPFree := cfg.IntRenameRegs, cfg.FPRenameRegs
	for ctx := 0; ctx < cfg.Contexts; ctx++ {
		th := &c.t[ctx]
		if !th.live {
			continue
		}
		base := ctx << c.winShift
		for i := 0; i < th.count; i++ {
			if c.ops[c.u[base|((th.head+i)&c.winMask)].op].side == sideFP {
				wantFPFree--
			} else {
				wantIntFree--
			}
		}
	}
	if c.regsFree[sideInt] != wantIntFree || c.regsFree[sideFP] != wantFPFree {
		t.Fatalf("register leak after detach: int %d want %d, fp %d want %d",
			c.regsFree[sideInt], wantIntFree, c.regsFree[sideFP], wantFPFree)
	}

	// The core must keep simulating and the detached slot must be reusable.
	before := c.Snapshot().Committed
	c.Run(5_000)
	if c.Snapshot().Committed == before {
		t.Fatal("no progress after in-flight detach")
	}
	c.Attach(victim, mkSource(t, "FP", 22, 1), resume, nil, victim)
	c.Run(5_000)
	if c.ThreadCommitted(victim) == 0 {
		t.Fatal("reattached thread made no progress")
	}
}

// fillLog wraps a stream and records where each Fill started.
type fillLog struct {
	*trace.Stream
	starts *[]uint64
}

func (f fillLog) Fill(seq uint64, out []trace.Inst) {
	*f.starts = append(*f.starts, seq)
	f.Stream.Fill(seq, out)
}

// TestReattachDropsBufferedSupply detaches a context whose resume seq lies
// inside its supply buffer and re-attaches at that seq — once with the same
// source, once with a different one. The buffer must die at Attach: the
// first Fill afterwards starts at the resume seq, and every instruction
// dispatched from then on is the new source's, never a leftover.
func TestReattachDropsBufferedSupply(t *testing.T) {
	stream := func(name string, seed uint64) *trace.Stream {
		s, err := trace.NewStream(testProfiles[name], seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name string
		next *trace.Stream // nil: re-attach the source that was detached
	}{
		{"same source", nil},
		{"different source", stream("FP", 32)},
	} {
		c := mustCore(t, arch.Default21264(1))
		var starts []uint64
		first := stream("GCC", 31)
		c.Attach(0, fillLog{first, &starts}, 0, nil, 0)
		c.Run(2_000)
		th := &c.t[0]
		midBuffer := func() bool {
			buf, head := &th.buf, th.headSeq
			return buf.n > 0 && head > buf.seq && head < buf.seq+fetchBufLen-1 && th.seq > head
		}
		for i := 0; i < 50_000 && !midBuffer(); i++ {
			c.Run(1)
		}
		if !midBuffer() {
			t.Fatalf("%s: oldest in-flight instruction never fell inside the supply buffer", tc.name)
		}
		resume, _ := c.Detach(0)
		next := tc.next
		if next == nil {
			next = first
		}
		starts = starts[:0]
		c.Attach(0, fillLog{next, &starts}, resume, nil, 0)
		for i := 0; i < 3_000; i++ {
			c.Run(1)
			for k := 0; k < th.count; k++ {
				u := &c.u[(th.head+k)&c.winMask]
				want := next.At(u.seq)
				if u.op != want.Op || u.addr != want.Addr ||
					u.dep1 != depSeq(want.Seq, want.Dep1) || u.dep2 != depSeq(want.Seq, want.Dep2) {
					t.Fatalf("%s: seq %d in flight as op %v addr %#x, source says %+v",
						tc.name, u.seq, u.op, u.addr, want)
				}
			}
		}
		if len(starts) == 0 || starts[0] != resume {
			t.Fatalf("%s: supply after re-attach started at %v, want a Fill at resume seq %d", tc.name, starts, resume)
		}
		if th.committed == 0 {
			t.Fatalf("%s: no progress after re-attach", tc.name)
		}
	}
}

// TestReattachLeavesNothingBehind runs a context, detaches it and attaches
// a different source: the context's record must equal a fresh core's after
// the same Attach, except for the attach generation and the supply
// buffer's entries past n, which fetch never reads. Detach itself must
// leave only the generation, so no source or gate outlives its job.
func TestReattachLeavesNothingBehind(t *testing.T) {
	cfg := arch.Default21264(2)
	c := mustCore(t, cfg)
	c.Attach(0, mkSource(t, "GCC", 41, 0), 0, nil, 0)
	c.Attach(1, mkSource(t, "MG", 42, 1), 0, nil, 1)
	c.Run(20_000)
	resume, _ := c.Detach(0)
	if resume == 0 {
		t.Fatal("the detached context made no progress")
	}
	live := func(th thread) thread {
		clear(th.buf.in[th.buf.n:])
		return th
	}
	gen := c.t[0].gen
	if got := live(c.t[0]); got != (thread{gen: gen}) {
		t.Fatalf("detached record holds state: %+v", got)
	}

	next := mkSource(t, "FP", 43, 2)
	gate := &testGate{}
	c.Attach(0, next, 7, gate, 1)
	fresh := mustCore(t, cfg)
	fresh.Attach(0, next, 7, gate, 1)
	got, want := live(c.t[0]), live(fresh.t[0])
	if got.gen != gen+1 {
		t.Errorf("attach generation %d after %d, want %d", got.gen, gen, gen+1)
	}
	got.gen = want.gen
	if got != want {
		t.Errorf("re-attached record differs from a fresh one:\n got %+v\nwant %+v", got, want)
	}
}
