package cpu_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/cpu"
	"symbios/internal/workload"
)

var updateWork = flag.Bool("update-work", false, "rewrite testdata/work_counts.json from the current kernel")

// TestWorkCounts is an exact regression gate on the kernel's own effort:
// the BenchmarkCoreCycles shape (three contexts running FP, MG and GCC)
// for 200k cycles from cold. The simulator is deterministic, so the counts
// carry no noise; the test fails when steps + skipped is not the run's
// length or any other count rises. When counts fall it logs the new
// values; re-cut the file with -update-work in the same change.
func TestWorkCounts(t *testing.T) {
	const cycles = 200_000
	c, err := cpu.New(arch.Default21264(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"FP", "MG", "GCC"} {
		job := workload.MustNewJob(workload.MustLookup(name), i, uint64(42+i))
		c.Attach(i, job.Source(0), 0, nil, 0)
	}
	c.Run(cycles)
	checkWork(t, "testdata/work_counts.json", c.Work(), cycles)
}

// checkWork compares got against the counts committed at path, field by
// field, or rewrites the file under -update-work. Every cycle of the run is
// either stepped or skipped, so steps + skipped must equal cycles exactly,
// and a kernel that skips more must raise skipped: that count is held to
// the sum, not to the file. Every other count fails the gate when it rises.
func checkWork(t *testing.T, path string, got cpu.Work, cycles uint64) {
	t.Helper()
	if n := got.Steps + got.Skipped; n != cycles {
		t.Fatalf("steps + skipped = %d, want the run's %d cycles", n, cycles)
	}
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if *updateWork {
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var gotM, wantM map[string]uint64
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &wantM); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &gotM); err != nil {
		t.Fatal(err)
	}
	fell := false
	for k, g := range gotM {
		switch w := wantM[k]; {
		case k == "skipped":
			// Held to steps + skipped above.
		case g > w:
			t.Errorf("%s rose to %d (committed %d)", k, g, w)
		case g < w:
			fell = true
		}
	}
	if fell && !t.Failed() {
		t.Logf("work fell; re-cut %s with -update-work:\n%s", path, data)
	}
}
