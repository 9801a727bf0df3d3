package cpu

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/counters"
)

// The golden kernel-equivalence suite pins the cycle kernel's observable
// behaviour — counter snapshots, per-thread commit counts and detach resume
// points — for a matrix of architecture configurations and workload shapes.
// The snapshots in testdata/golden_kernel.json were captured from the seed
// (pre-SoA, strictly cycle-by-cycle) kernel; any kernel rearchitecture must
// reproduce them bit for bit. Regenerate with:
//
//	go test ./internal/cpu -run TestGoldenKernel -update-golden
//
// but only after proving the new kernel equivalent some other way — the
// golden file IS the equivalence oracle.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_kernel.json from the current kernel")

// goldenStep is one observation point: counters after running to Cycle.
type goldenStep struct {
	Cycle     uint64            `json:"cycle"`
	Counters  counters.Set      `json:"counters"`
	Committed map[string]uint64 `json:"committed"` // per attached ctx, as "ctx0"...
}

// goldenCase is one configuration/workload cell of the matrix.
type goldenCase struct {
	Name  string       `json:"name"`
	Steps []goldenStep `json:"steps"`
	// Detach results after the final step, for threads detached by the
	// script: resume sequence and committed count, keyed "ctx0"...
	Resume    map[string]uint64 `json:"resume"`
	Committed map[string]uint64 `json:"detachCommitted"`
}

// goldenConfigs names the architecture matrix: SMT levels x cache configs x
// fetch policy x pressure points (tiny windows/queues force every conflict
// class).
func goldenConfigs() map[string]arch.Config {
	smallCache := arch.Default21264(2)
	smallCache.L1DSets, smallCache.L1DAssoc = 64, 2 // 8 KB L1D
	smallCache.L2Sets, smallCache.L2Assoc = 512, 4  // 128 KB L2
	smallCache.DTLBEntries = 16
	smallCache.L1ISets = 64

	tiny := arch.Default21264(3)
	tiny.WindowSize = 16
	tiny.IntQueue, tiny.FPQueue = 8, 6
	tiny.IntRenameRegs, tiny.FPRenameRegs = 12, 12
	tiny.IntALUs, tiny.FPUnits, tiny.LSUnits = 2, 1, 1

	rr := arch.Default21264(2)
	rr.FetchPolicy = arch.FetchRoundRobin

	// Issue width below the unit total, so the issue budget runs out
	// mid-scan (every other cell has IssueWidth 8 >= its units).
	narrow := arch.Default21264(2)
	narrow.IssueWidth = 3
	narrow.IntALUs, narrow.FPUnits, narrow.LSUnits = 4, 2, 2

	// One load/store unit under memory-heavy profiles (goldenProfiles): the
	// LS class is spent for most scans while the integer class keeps issuing.
	lsBound := arch.Default21264(3)
	lsBound.LSUnits = 1

	// One issue per cycle: the budget ends every scan after its first
	// issue, so most of each queue goes unexamined.
	issue1 := arch.Default21264(2)
	issue1.IssueWidth = 1

	// Queues longer than one 64-bit word, with registers to fill them, so
	// runs of not-yet-ready entries are long.
	deep := arch.Default21264(2)
	deep.WindowSize = 256
	deep.IntQueue, deep.FPQueue = 96, 80
	deep.IntRenameRegs, deep.FPRenameRegs = 160, 160

	return map[string]arch.Config{
		"smt1-default":     arch.Default21264(1),
		"smt2-default":     arch.Default21264(2),
		"smt4-default":     arch.Default21264(4),
		"smt2-smallcache":  smallCache,
		"smt3-pressure":    tiny,
		"smt2-roundrobin":  rr,
		"smt2-narrowissue": narrow,
		"smt3-lsbound":     lsBound,
		"smt2-issue1":      issue1,
		"smt2-deepqueue":   deep,
	}
}

// goldenProfiles names the stream profile attached to each context of a
// cell, cycled over the contexts.
func goldenProfiles(name string) []string {
	if name == "smt3-lsbound" {
		return []string{"IS", "MG", "WAVE"}
	}
	return []string{"IS", "GCC", "FP", "GO"}
}

// runGoldenCase executes the scripted workload for one config and returns
// the observations. The script exercises continuous running, mid-run
// snapshots at odd cycle counts, barrier gates, divide pressure and
// detach/reattach slicing — every path whose timing a kernel rewrite could
// disturb.
func runGoldenCase(t *testing.T, name string, cfg arch.Config) goldenCase {
	t.Helper()
	c := mustCore(t, cfg)
	gc := goldenCase{Name: name, Resume: map[string]uint64{}, Committed: map[string]uint64{}}

	profiles := goldenProfiles(name)
	for i := 0; i < cfg.Contexts; i++ {
		c.Attach(i, mkSource(t, profiles[i%len(profiles)], uint64(13+i), i), 0, nil, 0)
	}
	record := func() {
		st := goldenStep{Cycle: c.Cycle(), Counters: c.Snapshot(), Committed: map[string]uint64{}}
		for i := 0; i < cfg.Contexts; i++ {
			if c.Occupied(i) {
				st.Committed[ctxKey(i)] = c.ThreadCommitted(i)
			}
		}
		gc.Steps = append(gc.Steps, st)
	}
	// Odd chunk lengths so snapshots land mid-flight, not on neat
	// boundaries.
	for _, chunk := range []uint64{7_919, 31_337, 104_729, 54_321} {
		c.Run(chunk)
		record()
	}
	// Slice context 0: detach (squashing in-flight work), run the rest,
	// reattach at the resume point, run again. Exercises purge, generation
	// safety and replay.
	resume0, n0 := c.Detach(0)
	gc.Resume[ctxKey(0)], gc.Committed[ctxKey(0)] = resume0, n0
	c.Run(9_973)
	record()
	c.Attach(0, mkSource(t, profiles[0], 13, 0), resume0, nil, 0)
	c.Run(50_021)
	record()
	// Final detach of everything pins resume/commit accounting.
	for i := 0; i < cfg.Contexts; i++ {
		r, n := c.Detach(i)
		gc.Resume[ctxKey(i)], gc.Committed[ctxKey(i)] = r, n
	}
	record()
	return gc
}

// runGoldenBarrier is the barrier-gated companion case: two tight-sync
// threads coordinated by a gate, with a phase where one runs alone.
func runGoldenBarrier(t *testing.T) goldenCase {
	t.Helper()
	cfg := arch.Default21264(2)
	c := mustCore(t, cfg)
	gc := goldenCase{Name: "smt2-barrier", Resume: map[string]uint64{}, Committed: map[string]uint64{}}
	gate := &testGate{}
	c.Attach(0, mkSyncSource(t, 99, 0, 400), 0, gate, 0)
	c.Run(25_000) // blocked at the first barrier most of this time
	st := goldenStep{Cycle: c.Cycle(), Counters: c.Snapshot(), Committed: map[string]uint64{ctxKey(0): c.ThreadCommitted(0)}}
	gc.Steps = append(gc.Steps, st)
	c.Attach(1, mkSyncSource(t, 100, 1, 400), 0, gate, 1)
	c.Run(75_007)
	st = goldenStep{Cycle: c.Cycle(), Counters: c.Snapshot(), Committed: map[string]uint64{
		ctxKey(0): c.ThreadCommitted(0), ctxKey(1): c.ThreadCommitted(1)}}
	gc.Steps = append(gc.Steps, st)
	for i := 0; i < 2; i++ {
		r, n := c.Detach(i)
		gc.Resume[ctxKey(i)], gc.Committed[ctxKey(i)] = r, n
	}
	return gc
}

func ctxKey(i int) string { return "ctx" + string(rune('0'+i)) }

const goldenPath = "testdata/golden_kernel.json"

func buildGolden(t *testing.T) []goldenCase {
	var cases []goldenCase
	names := make([]string, 0)
	cfgs := goldenConfigs()
	for name := range cfgs {
		names = append(names, name)
	}
	// Deterministic order for a stable file.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		cases = append(cases, runGoldenCase(t, name, cfgs[name]))
	}
	cases = append(cases, runGoldenBarrier(t))
	return cases
}

// TestGoldenKernel asserts the kernel reproduces the seed kernel's counter
// stream bit for bit across the config matrix.
func TestGoldenKernel(t *testing.T) {
	got := buildGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", goldenPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden on a trusted kernel): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("case count %d, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Fatalf("case %d is %q, golden has %q", i, got[i].Name, want[i].Name)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			for s := range want[i].Steps {
				if s < len(got[i].Steps) && !reflect.DeepEqual(got[i].Steps[s], want[i].Steps[s]) {
					t.Errorf("%s step %d diverged:\n got %+v\nwant %+v", want[i].Name, s, got[i].Steps[s], want[i].Steps[s])
					break
				}
			}
			if !reflect.DeepEqual(got[i].Resume, want[i].Resume) || !reflect.DeepEqual(got[i].Committed, want[i].Committed) {
				t.Errorf("%s detach accounting diverged:\n got %v / %v\nwant %v / %v",
					want[i].Name, got[i].Resume, got[i].Committed, want[i].Resume, want[i].Committed)
			}
			if !t.Failed() {
				t.Errorf("%s diverged from golden", want[i].Name)
			}
		}
	}
}

// TestGoldenCoverage keeps the golden matrix honest: summed over every cell,
// each conflict counter and each per-class commit counter must be nonzero,
// so no resource or class path of the kernel goes unpinned.
func TestGoldenCoverage(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	var sum counters.Set
	for _, gc := range cases {
		last := gc.Steps[len(gc.Steps)-1].Counters
		for r := range sum.ConflictCycles {
			sum.ConflictCycles[r] += last.ConflictCycles[r]
		}
		sum.IntCommitted += last.IntCommitted
		sum.FPCommitted += last.FPCommitted
		sum.LoadCommitted += last.LoadCommitted
		sum.StoreCommitted += last.StoreCommitted
		sum.BranchCommitted += last.BranchCommitted
	}
	for r, n := range sum.ConflictCycles {
		if n == 0 {
			t.Errorf("no golden cell latches a %v conflict", counters.Resource(r))
		}
	}
	for name, n := range map[string]uint64{
		"IntCommitted": sum.IntCommitted, "FPCommitted": sum.FPCommitted,
		"LoadCommitted": sum.LoadCommitted, "StoreCommitted": sum.StoreCommitted,
		"BranchCommitted": sum.BranchCommitted,
	} {
		if n == 0 {
			t.Errorf("no golden cell commits any %s", name)
		}
	}
}
