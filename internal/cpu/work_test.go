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
// carry no noise; the test fails when any rises. When counts fall it logs
// the new values; re-cut the file with -update-work in the same change.
func TestWorkCounts(t *testing.T) {
	c, err := cpu.New(arch.Default21264(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"FP", "MG", "GCC"} {
		job := workload.MustNewJob(workload.MustLookup(name), i, uint64(42+i))
		c.Attach(i, job.Source(0), 0, nil, 0)
	}
	c.Run(200_000)
	checkWork(t, "testdata/work_counts.json", c.Work())
}

// checkWork compares got against the counts committed at path, field by
// field, or rewrites the file under -update-work.
func checkWork(t *testing.T, path string, got cpu.Work) {
	t.Helper()
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
