package serve

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime/debug"
	"testing"

	"symbios/internal/cpu"
	"symbios/internal/experiments"
	"symbios/internal/workload"
)

var updateWork = flag.Bool("update-work", false, "rewrite testdata/work_counts.json from the current kernel")

// rankWork is what one serve-scale rank costs: the kernel's work counts
// and the allocations of the whole evaluation.
type rankWork struct {
	cpu.Work
	Allocs uint64 `json:"allocs"`
}

// rankCycles is the length in simulated cycles of the rank below, fixed by
// ServeScale and the request.
const rankCycles = 360_000

// TestRankWorkCounts is an exact regression gate on BenchmarkRankMiss's
// work: one Jsb(6,3,3) rank of three samples at seed 1. The simulator is
// deterministic, so the counts carry no noise. Every cycle is either
// stepped or skipped, so the test fails when steps + skipped is not
// rankCycles (a kernel that skips more must raise skipped) or when any
// other count rises. When counts fall it logs the new values; re-cut the
// file with -update-work in the same change. Under the race detector only
// the allocation count goes unchecked.
func TestRankWorkCounts(t *testing.T) {
	eval := &evaluator{scale: experiments.ServeScale()}
	req, err := DecodeScheduleRequest([]byte(`{"mix":"Jsb(6,3,3)","seed":1,"samples":3}`))
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByLabel(req.Mix)
	if err != nil {
		t.Fatal(err)
	}
	m, err := eval.rankMachine(req, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.rankOn(context.Background(), m, req, mix, predictorNames[req.Predictor]); err != nil {
		t.Fatal(err)
	}
	got := rankWork{Work: m.Core.Work()}
	if n := got.Steps + got.Skipped; n != rankCycles {
		t.Fatalf("steps + skipped = %d, want the rank's %d cycles", n, rankCycles)
	}
	if !raceEnabled {
		// Collection empties sync.Pools, which would make the count depend
		// on when the collector happens to run; with it off the count is
		// exact.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		got.Allocs = uint64(testing.AllocsPerRun(1, func() {
			if _, err := eval.evaluate(context.Background(), req, 0); err != nil {
				t.Fatal(err)
			}
		}))
	}

	const path = "testdata/work_counts.json"
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if *updateWork {
		if raceEnabled {
			t.Fatal("re-cut the counts without -race: allocations are not exact under it")
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var gotM, wantM map[string]uint64
	if err := json.Unmarshal(raw, &wantM); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &gotM); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		delete(gotM, "allocs") // the kernel's counts are still exact
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
