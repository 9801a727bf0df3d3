package cpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"symbios/internal/arch"
	"symbios/internal/counters"
	"symbios/internal/rng"
	"symbios/internal/trace"
)

// Local stream profiles, mirroring the workload package's flavours without
// importing it (workload depends on cpu).
var testProfiles = map[string]trace.Params{
	// fp-heavy, high ILP, small footprint
	"FP": {LoadFrac: 0.22, StoreFrac: 0.10, BranchFrac: 0.02,
		FPFrac: 0.85, FPDivFrac: 0.03, IMulFrac: 0.02,
		DepShort: 0.05, MaxDep: 56, SecondDepFrac: 0.25,
		WorkingSet: 128 << 10, HotSet: 16 << 10, HotFrac: 0.80,
		SeqFrac: 0.15, SeqStride: 8, BranchSites: 32, BranchEntropy: 0.02,
		CodeBlocks: 1024, BlockLen: 12, JumpFarFrac: 0.05},
	// fp streaming
	"MG": {LoadFrac: 0.30, StoreFrac: 0.09, BranchFrac: 0.03,
		FPFrac: 0.80, FPDivFrac: 0.02, IMulFrac: 0.02,
		DepShort: 0.05, MaxDep: 56, SecondDepFrac: 0.25,
		WorkingSet: 384 << 10, HotSet: 16 << 10, HotFrac: 0.35,
		SeqFrac: 0.60, SeqStride: 8, BranchSites: 16, BranchEntropy: 0.02,
		CodeBlocks: 256, BlockLen: 10, JumpFarFrac: 0.03},
	// branchy integer
	"GCC": {LoadFrac: 0.24, StoreFrac: 0.12, BranchFrac: 0.16,
		FPFrac: 0.02, IMulFrac: 0.02,
		DepShort: 0.65, MaxDep: 8, SecondDepFrac: 0.25,
		WorkingSet: 128 << 10, HotSet: 16 << 10, HotFrac: 0.80,
		SeqFrac: 0.12, SeqStride: 16, BranchSites: 2048, BranchEntropy: 0.14,
		CodeBlocks: 2048, BlockLen: 5, JumpFarFrac: 0.15},
	// very branchy integer
	"GO": {LoadFrac: 0.22, StoreFrac: 0.08, BranchFrac: 0.18,
		FPFrac: 0, IMulFrac: 0.02,
		DepShort: 0.65, MaxDep: 8, SecondDepFrac: 0.30,
		WorkingSet: 96 << 10, HotSet: 12 << 10, HotFrac: 0.82,
		SeqFrac: 0.10, SeqStride: 16, BranchSites: 4096, BranchEntropy: 0.18,
		CodeBlocks: 1024, BlockLen: 4, JumpFarFrac: 0.15},
	// compute-bound fp
	"EP": {LoadFrac: 0.12, StoreFrac: 0.04, BranchFrac: 0.03,
		FPFrac: 0.80, FPDivFrac: 0.12, IMulFrac: 0.04,
		DepShort: 0.05, MaxDep: 56, SecondDepFrac: 0.25,
		WorkingSet: 32 << 10, HotSet: 8 << 10, HotFrac: 0.80,
		SeqFrac: 0.15, SeqStride: 8, BranchSites: 8, BranchEntropy: 0.01,
		CodeBlocks: 64, BlockLen: 16, JumpFarFrac: 0.02},
	// memory-bound integer
	"IS": {LoadFrac: 0.30, StoreFrac: 0.15, BranchFrac: 0.06,
		FPFrac: 0.02, IMulFrac: 0.03,
		DepShort: 0.15, MaxDep: 40, SecondDepFrac: 0.20,
		WorkingSet: 512 << 10, HotSet: 16 << 10, HotFrac: 0.45,
		SeqFrac: 0.25, SeqStride: 8, BranchSites: 32, BranchEntropy: 0.05,
		CodeBlocks: 64, BlockLen: 8, JumpFarFrac: 0.05},
	// fp/int streaming pair workload
	"WAVE": {LoadFrac: 0.28, StoreFrac: 0.11, BranchFrac: 0.05,
		FPFrac: 0.70, FPDivFrac: 0.05, IMulFrac: 0.03,
		DepShort: 0.10, MaxDep: 48, SecondDepFrac: 0.25,
		WorkingSet: 256 << 10, HotSet: 16 << 10, HotFrac: 0.55,
		SeqFrac: 0.40, SeqStride: 8, BranchSites: 64, BranchEntropy: 0.04,
		CodeBlocks: 512, BlockLen: 8, JumpFarFrac: 0.08},
}

// mkSource builds a single-threaded source for a named profile flavour.
func mkSource(t testing.TB, name string, seed uint64, space int) Source {
	t.Helper()
	p, ok := testProfiles[name]
	if !ok {
		t.Fatalf("no test profile %q", name)
	}
	s, err := trace.NewStream(p, seed, uint64(space))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// syncSource wraps a stream with SYNC markers every interval instructions
// (mirrors the workload package's thread source).
type syncSource struct {
	base     *trace.Stream
	interval uint64
}

func (s syncSource) At(seq uint64) trace.Inst {
	if s.interval > 0 && (seq+1)%s.interval == 0 {
		return trace.Inst{Op: trace.SYNC, Seq: seq / s.interval}
	}
	return s.base.At(seq)
}

func (s syncSource) Fill(seq uint64, out []trace.Inst) {
	for i := range out {
		out[i] = s.At(seq + uint64(i))
	}
}

// testGate is a two-thread barrier (mirrors workload.BarrierGroup).
type testGate struct{ arrived [2]uint64 }

func (g *testGate) TryPass(thread int, idx uint64) bool {
	if g.arrived[thread] < idx+1 {
		g.arrived[thread] = idx + 1
	}
	return g.arrived[0] >= idx+1 && g.arrived[1] >= idx+1
}

func mkSyncSource(t testing.TB, seed uint64, space int, interval uint64) Source {
	t.Helper()
	st, err := trace.NewStream(testProfiles["MG"], seed, uint64(space))
	if err != nil {
		t.Fatal(err)
	}
	return syncSource{base: st, interval: interval}
}

func mustCore(t testing.TB, cfg arch.Config) *Core {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestProgress: an attached thread commits instructions.
func TestProgress(t *testing.T) {
	c := mustCore(t, arch.Default21264(2))
	c.Attach(0, mkSource(t, "EP", 1, 0), 0, nil, 0)
	c.Run(100_000)
	if got := c.ThreadCommitted(0); got < 10_000 {
		t.Errorf("committed only %d instructions in 100k cycles", got)
	}
	s := c.Snapshot()
	if s.Cycles != 100_000 {
		t.Errorf("cycle counter %d", s.Cycles)
	}
	if s.Committed != c.ThreadCommitted(0) {
		t.Errorf("aggregate %d != thread %d", s.Committed, c.ThreadCommitted(0))
	}
}

// TestDeterminism: identical configuration and sources give bit-identical
// counter snapshots.
func TestDeterminism(t *testing.T) {
	run := func() counters.Set {
		c := mustCore(t, arch.Default21264(2))
		c.Attach(0, mkSource(t, "FP", 7, 0), 0, nil, 0)
		c.Attach(1, mkSource(t, "GCC", 8, 1), 0, nil, 0)
		c.Run(200_000)
		return c.Snapshot()
	}
	if run() != run() {
		t.Error("two identical runs diverged")
	}
}

// TestDetachResumeInvariant: detach reports resume = startSeq + committed —
// the in-order-retirement invariant that makes replay exact.
func TestDetachResumeInvariant(t *testing.T) {
	c := mustCore(t, arch.Default21264(2))
	const start = 12345
	c.Attach(0, mkSource(t, "MG", 3, 0), start, nil, 0)
	c.Run(50_000)
	resume, committed := c.Detach(0)
	if resume != start+committed {
		t.Errorf("resume %d != start %d + committed %d", resume, start, committed)
	}
}

// TestReplayEquivalence: a job sliced across detach/attach cycles executes
// the same instructions as one attached continuously — total committed
// differs only by the squashed in-flight work at each switch.
func TestReplayEquivalence(t *testing.T) {
	continuous := mustCore(t, arch.Default21264(2))
	continuous.Attach(0, mkSource(t, "EP", 5, 0), 0, nil, 0)
	continuous.Run(400_000)
	cCont, _ := continuous.Detach(0)

	sliced := mustCore(t, arch.Default21264(2))
	var seq uint64
	for i := 0; i < 8; i++ {
		sliced.Attach(0, mkSource(t, "EP", 5, 0), seq, nil, 0)
		sliced.Run(50_000)
		seq, _ = sliced.Detach(0)
	}
	// Same total cycles; the sliced run re-fetches squashed instructions,
	// so it lands close behind but never ahead.
	if seq > cCont {
		t.Errorf("sliced run (%d) got ahead of continuous (%d)", seq, cCont)
	}
	if float64(seq) < 0.9*float64(cCont) {
		t.Errorf("sliced run (%d) lost more than 10%% to context switches (continuous %d)", seq, cCont)
	}
}

// TestRenameConservation: after detaching everything, the rename register
// pools are back to their configured sizes, and the queues are empty.
func TestRenameConservation(t *testing.T) {
	cfg := arch.Default21264(3)
	c := mustCore(t, cfg)
	for i, name := range []string{"FP", "MG", "GO"} {
		c.Attach(i, mkSource(t, name, uint64(i+1), i), 0, nil, 0)
	}
	c.Run(123_457) // odd number: detach mid-flight
	for i := 0; i < 3; i++ {
		c.Detach(i)
	}
	if c.regsFree[sideInt] != cfg.IntRenameRegs || c.regsFree[sideFP] != cfg.FPRenameRegs {
		t.Errorf("rename pools %d/%d after detach, want %d/%d",
			c.regsFree[sideInt], c.regsFree[sideFP], cfg.IntRenameRegs, cfg.FPRenameRegs)
	}
	if len(c.queued(sideInt)) != 0 || len(c.queued(sideFP)) != 0 {
		t.Errorf("queues not empty after detach: %d/%d", len(c.queued(sideInt)), len(c.queued(sideFP)))
	}
}

// TestAttachDetachStress is a property test: random attach/detach/run
// sequences preserve the structural invariants.
func TestAttachDetachStress(t *testing.T) {
	deep := arch.Default21264(4)
	deep.IntQueue, deep.FPQueue = 96, 80 // queues longer than one bitset word
	deep.IntRenameRegs, deep.FPRenameRegs = 160, 160
	for _, cfg := range []arch.Config{arch.Default21264(4), deep} {
		attachDetachStress(t, cfg)
	}
}

func attachDetachStress(t *testing.T, cfg arch.Config) {
	names := []string{"FP", "MG", "GCC", "GO", "EP", "IS"}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := mustCore(t, cfg)
		seqs := make([]uint64, len(names))
		onCtx := [4]int{-1, -1, -1, -1}
		for step := 0; step < 30; step++ {
			ctx := r.Intn(cfg.Contexts)
			if onCtx[ctx] >= 0 {
				seqs[onCtx[ctx]], _ = c.Detach(ctx)
				onCtx[ctx] = -1
			} else {
				job := r.Intn(len(names))
				used := false
				for _, j := range onCtx {
					if j == job {
						used = true
					}
				}
				if used {
					continue
				}
				c.Attach(ctx, mkSource(t, names[job], uint64(job)*7+1, job), seqs[job], nil, 0)
				onCtx[ctx] = job
			}
			c.Run(uint64(r.Intn(5000) + 100))
			if err := c.checkIssueState(); err != nil {
				t.Errorf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		for ctx, j := range onCtx {
			if j >= 0 {
				c.Detach(ctx)
			}
		}
		return c.regsFree[sideInt] == cfg.IntRenameRegs &&
			c.regsFree[sideFP] == cfg.FPRenameRegs &&
			len(c.queued(sideInt)) == 0 && len(c.queued(sideFP)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBarrierBlocksWithoutSibling: a tight-sync thread stalls at its first
// barrier when its sibling is absent, and resumes when the sibling arrives.
func TestBarrierBlocksWithoutSibling(t *testing.T) {
	const interval = 400
	gate := &testGate{}
	c := mustCore(t, arch.Default21264(2))
	c.Attach(0, mkSyncSource(t, 99, 0, interval), 0, gate, 0)
	c.Run(100_000)
	alone := c.ThreadCommitted(0)
	if alone >= interval {
		t.Errorf("thread passed barrier without sibling: %d committed", alone)
	}
	// Attach the sibling; both should now stream past barriers.
	c.Attach(1, mkSyncSource(t, 100, 0, interval), 0, gate, 1)
	c.Run(100_000)
	if got := c.ThreadCommitted(0); got < 10*interval {
		t.Errorf("thread still stalled with sibling present: %d committed", got)
	}
}

// TestLooseSyncRunsAlone: a loose-sync thread makes substantial progress
// before reaching its first barrier.
func TestLooseSyncRunsAlone(t *testing.T) {
	gate := &testGate{}
	c := mustCore(t, arch.Default21264(2))
	c.Attach(0, mkSyncSource(t, 99, 0, 2_000_000), 0, gate, 0)
	c.Run(100_000)
	if got := c.ThreadCommitted(0); got < 50_000 {
		t.Errorf("loose-sync thread made little progress alone: %d", got)
	}
}

// TestICOUNTFairness: two very different threads both make progress; the
// fast one does not starve the slow one and vice versa.
func TestICOUNTFairness(t *testing.T) {
	c := mustCore(t, arch.Default21264(2))
	c.Attach(0, mkSource(t, "EP", 1, 0), 0, nil, 0) // high ILP fp
	c.Attach(1, mkSource(t, "GO", 2, 1), 0, nil, 0) // branchy int
	c.Run(500_000)
	ep, gov := c.ThreadCommitted(0), c.ThreadCommitted(1)
	if ep == 0 || gov == 0 {
		t.Fatalf("starvation: EP %d, GO %d", ep, gov)
	}
	ratio := float64(ep) / float64(gov)
	if ratio > 10 || ratio < 0.1 {
		t.Errorf("grossly unfair fetch: EP %d vs GO %d", ep, gov)
	}
}

// TestScoreboardConflicts: a tiny window forces scoreboard (window-full)
// conflicts.
func TestScoreboardConflicts(t *testing.T) {
	cfg := arch.Default21264(1)
	cfg.WindowSize = 8
	c := mustCore(t, cfg)
	c.Attach(0, mkSource(t, "MG", 1, 0), 0, nil, 0)
	c.Run(100_000)
	s := c.Snapshot()
	if s.ConflictCycles[counters.Scoreboard] == 0 {
		t.Error("no scoreboard conflicts with an 8-entry window")
	}
}

// TestFPUnitConflicts: coscheduled fp-heavy threads conflict on the two
// floating-point units far more than int-heavy ones.
func TestFPUnitConflicts(t *testing.T) {
	fpPair := mustCore(t, arch.Default21264(2))
	fpPair.Attach(0, mkSource(t, "FP", 1, 0), 0, nil, 0)
	fpPair.Attach(1, mkSource(t, "MG", 2, 1), 0, nil, 0)
	fpPair.Run(300_000)
	fpConf := fpPair.Snapshot().ConflictPct(counters.FPUnits)

	intPair := mustCore(t, arch.Default21264(2))
	intPair.Attach(0, mkSource(t, "GCC", 1, 0), 0, nil, 0)
	intPair.Attach(1, mkSource(t, "GO", 2, 1), 0, nil, 0)
	intPair.Run(300_000)
	intConf := intPair.Snapshot().ConflictPct(counters.FPUnits)

	if fpConf < intConf+5 {
		t.Errorf("fp pair FPU conflicts %.1f%% not clearly above int pair %.1f%%", fpConf, intConf)
	}
}

// TestAttachErrors: misuse panics loudly (these are scheduler bugs).
func TestAttachErrors(t *testing.T) {
	c := mustCore(t, arch.Default21264(2))
	c.Attach(0, mkSource(t, "EP", 1, 0), 0, nil, 0)
	for name, f := range map[string]func(){
		"double attach":       func() { c.Attach(0, mkSource(t, "EP", 1, 0), 0, nil, 0) },
		"attach out of range": func() { c.Attach(5, mkSource(t, "EP", 1, 0), 0, nil, 0) },
		"detach idle":         func() { c.Detach(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestConfigRejected: invalid configs fail construction with an error, not
// a panic in the cache or TLB constructors.
func TestConfigRejected(t *testing.T) {
	cfg := arch.Default21264(2)
	cfg.WindowSize = 48 // not a power of two
	if _, err := New(cfg); err == nil {
		t.Error("non-power-of-two window accepted")
	}
	cfg = arch.Default21264(2)
	cfg.MemLatency = wheelSize + 100
	if _, err := New(cfg); err == nil {
		t.Error("latency beyond the supported range accepted")
	}
	cfg = arch.Default21264(0)
	if _, err := New(cfg); err == nil {
		t.Error("zero contexts accepted")
	}
	for name, set := range map[string]func(*arch.Config){
		"L1D assoc 0":     func(c *arch.Config) { c.L1DAssoc = 0 },
		"L2 assoc -1":     func(c *arch.Config) { c.L2Assoc = -1 },
		"2 DTLB entries":  func(c *arch.Config) { c.DTLBEntries = 2 },
		"6 DTLB entries":  func(c *arch.Config) { c.DTLBEntries = 6 },
		"12 DTLB entries": func(c *arch.Config) { c.DTLBEntries = 12 },
	} {
		cfg = arch.Default21264(2)
		set(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestLatencyBounds: New accepts exactly the execution latencies in
// [1, wheelSize-1]. A zero latency would let an instruction complete in the
// cycle it issues, with a doneAt that can read as queued; the upper end is
// the range New has always accepted, kept so that no configuration changes
// verdict.
func TestLatencyBounds(t *testing.T) {
	def := arch.Default21264(1)
	for _, tc := range []struct {
		name string
		set  func(*arch.Config)
		ok   bool
	}{
		{"defaults", func(*arch.Config) {}, true},
		{"imul 0", func(c *arch.Config) { c.IntMulLatency = 0 }, false},
		{"imul 1", func(c *arch.Config) { c.IntMulLatency = 1 }, true},
		{"imul wheel-1", func(c *arch.Config) { c.IntMulLatency = wheelSize - 1 }, true},
		{"imul wheel", func(c *arch.Config) { c.IntMulLatency = wheelSize }, false},
		{"branch 0", func(c *arch.Config) { c.BranchLatency = 0 }, false},
		{"fdiv wheel", func(c *arch.Config) { c.FPDivLatency = wheelSize }, false},
		{"l1d hit 0", func(c *arch.Config) { c.L1DHitLatency = 0 }, false},
		{"memory path wheel-1", func(c *arch.Config) {
			c.MemLatency = wheelSize - 1 - c.L1DHitLatency - c.TLBMissPenalty - c.L2HitLatency
		}, true},
		{"memory path wheel", func(c *arch.Config) {
			c.MemLatency = wheelSize - c.L1DHitLatency - c.TLBMissPenalty - c.L2HitLatency
		}, false},
	} {
		cfg := def
		tc.set(&cfg)
		c, err := New(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: New error %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		// An accepted configuration simulates: the GCC stream commits.
		c.Attach(0, mkSource(t, "GCC", 5, 0), 0, nil, 0)
		c.Run(20_000)
		if c.Snapshot().Committed == 0 {
			t.Errorf("%s: accepted but made no progress", tc.name)
		}
	}
}

// TestContextLimit: fetch ranks contexts in a maxContexts-sized array, so
// New must refuse a configuration beyond it instead of panicking in the
// first cycle.
func TestContextLimit(t *testing.T) {
	for _, tc := range []struct {
		contexts int
		ok       bool
	}{
		{maxContexts, true},
		{maxContexts + 1, false},
	} {
		c, err := New(arch.Default21264(tc.contexts))
		if (err == nil) != tc.ok {
			t.Errorf("%d contexts: err = %v, want ok = %v", tc.contexts, err, tc.ok)
		}
		if err != nil {
			continue
		}
		for ctx := 0; ctx < tc.contexts; ctx++ {
			c.Attach(ctx, mkSource(t, "GCC", uint64(ctx), ctx), 0, nil, 0)
		}
		c.Run(1_000) // every context ranked by fetch
	}
}

// TestMispredictStall: raising a stream's branch entropy reduces its IPC
// through mispredict fetch stalls.
func TestMispredictStall(t *testing.T) {
	run := func(entropy float64) uint64 {
		p := testProfiles["GO"]
		p.BranchEntropy = entropy
		st, err := trace.NewStream(p, 77, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := mustCore(t, arch.Default21264(1))
		c.Attach(0, st, 0, nil, 0)
		c.Run(300_000)
		return c.ThreadCommitted(0)
	}
	predictable := run(0.0)
	noisy := run(0.5)
	if float64(noisy) > 0.8*float64(predictable) {
		t.Errorf("50%% branch entropy barely slowed the thread: %d vs %d", noisy, predictable)
	}
}

// TestSYNCWithoutGatePasses: SYNC markers are consumed transparently when
// no gate is installed (single-threaded instances of mt_ profiles).
func TestSYNCWithoutGatePasses(t *testing.T) {
	const interval = 2000
	c := mustCore(t, arch.Default21264(1))
	c.Attach(0, mkSyncSource(t, 42, 0, interval), 0, nil, 0)
	c.Run(100_000)
	if got := c.ThreadCommitted(0); got < 2*interval {
		t.Errorf("gateless SYNC stalled the thread: %d committed", got)
	}
}

// TestIdleContexts: a core with no threads just burns cycles.
func TestIdleContexts(t *testing.T) {
	c := mustCore(t, arch.Default21264(3))
	c.Run(10_000)
	s := c.Snapshot()
	if s.Committed != 0 || s.Fetched != 0 {
		t.Errorf("idle core executed %d instructions", s.Committed)
	}
	if s.Cycles != 10_000 {
		t.Errorf("cycles %d", s.Cycles)
	}
}

// mix check: the committed class counters add up.
func TestClassCountersSum(t *testing.T) {
	c := mustCore(t, arch.Default21264(2))
	c.Attach(0, mkSource(t, "WAVE", 1, 0), 0, nil, 0)
	c.Run(200_000)
	s := c.Snapshot()
	sum := s.IntCommitted + s.FPCommitted + s.LoadCommitted + s.StoreCommitted
	if sum != s.Committed {
		t.Errorf("class counters sum to %d, committed %d", sum, s.Committed)
	}
	if s.BranchCommitted > s.IntCommitted {
		t.Error("branches exceed the integer class that contains them")
	}
}

// TestRoundRobinFetchPolicy: the ablation policy runs and distributes
// fetch opportunities without starving either thread.
func TestRoundRobinFetchPolicy(t *testing.T) {
	cfg := arch.Default21264(2)
	cfg.FetchPolicy = arch.FetchRoundRobin
	c := mustCore(t, cfg)
	c.Attach(0, mkSource(t, "EP", 1, 0), 0, nil, 0)
	c.Attach(1, mkSource(t, "GO", 2, 1), 0, nil, 0)
	c.Run(300_000)
	a, b := c.ThreadCommitted(0), c.ThreadCommitted(1)
	if a == 0 || b == 0 {
		t.Fatalf("starvation under round-robin: %d/%d", a, b)
	}
}

// TestFetchPoliciesDiffer: ICOUNT and round-robin produce different
// executions (the ablation is not a no-op).
func TestFetchPoliciesDiffer(t *testing.T) {
	run := func(p arch.FetchPolicy) uint64 {
		cfg := arch.Default21264(2)
		cfg.FetchPolicy = p
		c := mustCore(t, cfg)
		c.Attach(0, mkSource(t, "FP", 1, 0), 0, nil, 0)
		c.Attach(1, mkSource(t, "IS", 2, 1), 0, nil, 0)
		c.Run(300_000)
		return c.Snapshot().Committed
	}
	if run(arch.FetchICOUNT) == run(arch.FetchRoundRobin) {
		t.Error("fetch policies produced identical executions")
	}
}

// TestRapidReattachGenerationSafety is a regression test: instructions a
// detached thread left executing must not corrupt a thread attached to the
// same context shortly after (the per-context generation check on stale
// slots).
func TestRapidReattachGenerationSafety(t *testing.T) {
	c := mustCore(t, arch.Default21264(2))
	var seqA, seqB uint64
	for i := 0; i < 200; i++ {
		c.Attach(0, mkSource(t, "MG", 9, 0), seqA, nil, 0)
		c.Run(uint64(50 + i%37)) // shorter than a memory access
		seqA, _ = c.Detach(0)
		c.Attach(0, mkSource(t, "IS", 11, 1), seqB, nil, 0)
		c.Run(uint64(50 + i%29))
		seqB, _ = c.Detach(0)
	}
	if seqA == 0 || seqB == 0 {
		t.Error("no progress under rapid reattachment")
	}
	if c.regsFree[sideInt] != c.cfg.IntRenameRegs || c.regsFree[sideFP] != c.cfg.FPRenameRegs {
		t.Errorf("rename pool corrupted: %d/%d", c.regsFree[sideInt], c.regsFree[sideFP])
	}
}

// TestFDIVNonPipelined: a divide-saturated stream is limited by the
// non-pipelined divider (IPC well below one per-FPU per cycle on the
// divide share).
func TestFDIVNonPipelined(t *testing.T) {
	p := testProfiles["EP"]
	p.FPFrac, p.FPDivFrac = 1.0, 1.0 // every compute op divides
	p.LoadFrac, p.StoreFrac, p.BranchFrac = 0, 0, 0
	st, err := trace.NewStream(p, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.Default21264(1)
	c := mustCore(t, cfg)
	c.Attach(0, st, 0, nil, 0)
	c.Run(120_000)
	ipc := float64(c.ThreadCommitted(0)) / 120_000
	// 2 dividers, 12-cycle occupancy: hard ceiling 2/12 = 0.167 IPC.
	ceiling := float64(cfg.FPUnits) / float64(cfg.FPDivLatency)
	if ipc > ceiling*1.05 {
		t.Errorf("divide IPC %.3f above non-pipelined ceiling %.3f", ipc, ceiling)
	}
	if ipc < ceiling*0.5 {
		t.Errorf("divide IPC %.3f implausibly far below ceiling %.3f", ipc, ceiling)
	}
}

// TestICacheFootprintStalls: a code footprint far beyond the L1I capacity
// slows fetch relative to a tiny loop.
func TestICacheFootprintStalls(t *testing.T) {
	run := func(blocks int) uint64 {
		p := testProfiles["GCC"]
		p.CodeBlocks = blocks
		p.JumpFarFrac = 0.5
		st, err := trace.NewStream(p, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := mustCore(t, arch.Default21264(1))
		c.Attach(0, st, 0, nil, 0)
		c.Run(300_000)
		return c.ThreadCommitted(0)
	}
	small := run(64)   // ~1 KB of code
	huge := run(65536) // ~1.3 MB of code
	if float64(huge) > 0.8*float64(small) {
		t.Errorf("huge code footprint barely slowed fetch: %d vs %d", huge, small)
	}
}

// queued returns the live entries of one side's instruction queue, oldest
// first.
func (c *Core) queued(side int) []qent {
	var out []qent
	q := &c.q[side]
	for _, e := range q.ent[:q.hi] {
		if e.gi >= 0 {
			out = append(out, e)
		}
	}
	if len(out) != q.n {
		panic("queue live count disagrees with its entries")
	}
	return out
}

// checkIssueState verifies the issue stage's bookkeeping between cycles:
// every queued entry is in exactly one place — its queue's eligibility set
// or one readiness bucket — at the position its slot's qpos records, only
// queued entries are anywhere, the parked count matches the lists, and the
// bucket of the cycle just simulated has been drained.
func (c *Core) checkIssueState() error {
	eligible := map[int32]bool{}
	for side := range c.q {
		q := &c.q[side]
		n := 0
		for p := 0; p < len(q.ent); p++ {
			el := q.elig[p>>6]>>(p&63)&1 == 1
			if p >= q.hi || q.ent[p].gi < 0 {
				if el {
					return fmt.Errorf("side %d: empty position %d is eligible", side, p)
				}
				continue
			}
			gi := q.ent[p].gi
			n++
			if u := &c.u[gi]; u.qpos != int32(p) {
				return fmt.Errorf("side %d: slot %d at position %d, qpos says %d", side, gi, p, u.qpos)
			} else if u.doneAt != 0 {
				return fmt.Errorf("side %d: slot %d in the queue has issued (doneAt %d)", side, gi, u.doneAt)
			}
			eligible[gi] = el
		}
		if n != q.n {
			return fmt.Errorf("side %d: %d live entries, count says %d", side, n, q.n)
		}
	}
	if c.readyHead[c.cycle&(wheelSize-1)] >= 0 {
		return fmt.Errorf("cycle %d's readiness bucket was not drained", c.cycle)
	}
	parked := map[int32]bool{}
	links := 0
	for b := range c.readyHead {
		for gi := c.readyHead[b]; gi >= 0; gi = c.u[gi].parkNext {
			if links++; links > len(c.u) {
				return fmt.Errorf("readiness lists hold a cycle")
			}
			el, queued := eligible[gi]
			switch {
			case !queued:
				return fmt.Errorf("slot %d is parked but not queued", gi)
			case el:
				return fmt.Errorf("slot %d is both eligible and parked", gi)
			case parked[gi]:
				return fmt.Errorf("slot %d is parked twice", gi)
			}
			parked[gi] = true
		}
	}
	if len(parked) != c.parked {
		return fmt.Errorf("%d entries parked, count says %d", len(parked), c.parked)
	}
	for gi, el := range eligible {
		if !el && !parked[gi] {
			return fmt.Errorf("slot %d is queued but neither eligible nor parked", gi)
		}
	}
	return nil
}
