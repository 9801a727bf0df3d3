package cpu

import (
	"testing"
	"testing/quick"

	"symbios/internal/arch"
	"symbios/internal/counters"
	"symbios/internal/rng"
)

// TestIPCUpperBound: committed IPC can never exceed the machine's issue
// width, whatever the workload.
func TestIPCUpperBound(t *testing.T) {
	cfg := arch.Default21264(4)
	c := mustCore(t, cfg)
	for i, name := range []string{"EP", "FP", "MG", "WAVE"} {
		c.Attach(i, mkSource(t, name, uint64(i+1), i), 0, nil, 0)
	}
	c.Run(200_000)
	if ipc := c.Snapshot().IPC(); ipc > float64(cfg.IssueWidth) {
		t.Errorf("IPC %.2f exceeds issue width %d", ipc, cfg.IssueWidth)
	}
}

// TestConflictCyclesBounded: each conflict counter counts cycles, so none
// can exceed the elapsed cycle count.
func TestConflictCyclesBounded(t *testing.T) {
	c := mustCore(t, arch.Default21264(3))
	for i, name := range []string{"FP", "MG", "WAVE"} {
		c.Attach(i, mkSource(t, name, uint64(i+1), i), 0, nil, 0)
	}
	const cycles = 150_000
	c.Run(cycles)
	s := c.Snapshot()
	for r := counters.Resource(0); r < counters.NumResources; r++ {
		if s.ConflictCycles[r] > cycles {
			t.Errorf("%s conflict cycles %d exceed %d elapsed", r, s.ConflictCycles[r], cycles)
		}
	}
}

// TestFetchedAtLeastCommitted: the pipeline cannot commit instructions it
// never fetched, and squashes mean fetched >= committed.
func TestFetchedAtLeastCommitted(t *testing.T) {
	c := mustCore(t, arch.Default21264(2))
	c.Attach(0, mkSource(t, "GO", 1, 0), 0, nil, 0)
	c.Attach(1, mkSource(t, "GCC", 2, 1), 0, nil, 0)
	c.Run(200_000)
	s := c.Snapshot()
	if s.Fetched < s.Committed {
		t.Errorf("fetched %d < committed %d", s.Fetched, s.Committed)
	}
}

// TestSnapshotMonotone: counters only grow.
func TestSnapshotMonotone(t *testing.T) {
	c := mustCore(t, arch.Default21264(2))
	c.Attach(0, mkSource(t, "MG", 1, 0), 0, nil, 0)
	prev := c.Snapshot()
	for i := 0; i < 20; i++ {
		c.Run(5_000)
		s := c.Snapshot()
		if s.Cycles <= prev.Cycles || s.Committed < prev.Committed || s.Fetched < prev.Fetched {
			t.Fatalf("counters regressed at step %d", i)
		}
		for r := counters.Resource(0); r < counters.NumResources; r++ {
			if s.ConflictCycles[r] < prev.ConflictCycles[r] {
				t.Fatalf("%s conflicts regressed", r)
			}
		}
		prev = s
	}
}

// TestSMTThroughputGain: the essence of SMT — two threads together commit
// more per cycle than either alone, for compute-bound jobs that share well.
func TestSMTThroughputGain(t *testing.T) {
	soloRun := func(name string, space int) float64 {
		c := mustCore(t, arch.Default21264(2))
		c.Attach(0, mkSource(t, name, 1, space), 0, nil, 0)
		c.Run(300_000)
		return c.Snapshot().IPC()
	}
	soloEP := soloRun("EP", 0)
	soloGO := soloRun("GO", 1)

	c := mustCore(t, arch.Default21264(2))
	c.Attach(0, mkSource(t, "EP", 1, 0), 0, nil, 0)
	c.Attach(1, mkSource(t, "GO", 1, 1), 0, nil, 0)
	c.Run(300_000)
	both := c.Snapshot().IPC()

	max := soloEP
	if soloGO > max {
		max = soloGO
	}
	if both <= max {
		t.Errorf("coscheduling EP+GO (%.2f) no better than the best solo (%.2f/%.2f)", both, soloEP, soloGO)
	}
}

// TestContextCountScaling: aggregate IPC is non-decreasing as compatible
// jobs are added to the machine (TLP converts to ILP).
func TestContextCountScaling(t *testing.T) {
	names := []string{"EP", "GO", "GCC", "WAVE"}
	prev := 0.0
	for n := 1; n <= 4; n++ {
		c := mustCore(t, arch.Default21264(n))
		for i := 0; i < n; i++ {
			c.Attach(i, mkSource(t, names[i], uint64(i+1), i), 0, nil, 0)
		}
		c.Run(250_000)
		ipc := c.Snapshot().IPC()
		if ipc < prev*0.9 {
			t.Errorf("IPC dropped sharply adding thread %d: %.2f after %.2f", n, ipc, prev)
		}
		prev = ipc
	}
}

// TestRandomConfigRobustness is a property test: the simulator preserves
// its invariants across randomized machine configurations — no panics,
// bounded counters, conserved rename registers.
func TestRandomConfigRobustness(t *testing.T) {
	r := rng.New(77)
	f := func(seed uint64) bool {
		cfg := randomConfig(r, 4)
		c, err := New(cfg)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return true // validation refusing is fine
		}
		names := []string{"FP", "GO", "IS", "EP"}
		for i := 0; i < cfg.Contexts; i++ {
			c.Attach(i, mkSource(t, names[i], seed+uint64(i)+1, i), 0, nil, 0)
		}
		const cycles = 20_000
		c.Run(cycles)
		s := c.Snapshot()
		if s.Cycles != cycles || s.Fetched < s.Committed {
			return false
		}
		if s.IPC() > float64(cfg.IssueWidth) {
			return false
		}
		for i := 0; i < cfg.Contexts; i++ {
			c.Detach(i)
		}
		return c.regsFree[sideInt] == cfg.IntRenameRegs &&
			c.regsFree[sideFP] == cfg.FPRenameRegs &&
			len(c.queued(sideInt)) == 0 && len(c.queued(sideFP)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
