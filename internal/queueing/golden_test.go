package queueing

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/core"
)

// The scheduler golden: the full Result of both schedulers on a few short
// scripts shaped like QuickQueueScale (50k-cycle slices, 500k-cycle mean
// jobs), pinned bit for bit. Any change to what either scheduler runs, when
// it samples or how it counts shows here. Regenerate with:
//
//	go test ./internal/queueing -run TestGoldenResults -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_results.json from the current schedulers")

const goldenPath = "testdata/golden_results.json"

// goldenCase is one script run under the naive scheduler and under SOS.
type goldenCase struct {
	Naive Result `json:"naive"`
	SOS   Result `json:"sos"`
}

// goldenCases runs every case: levels 2, 3 and 4 under DefaultSOSOptions,
// the open-load harness's backlog-aware variant, and TestSOSBackoff's
// stable jobmix and options.
func goldenCases(t *testing.T) map[string]goldenCase {
	t.Helper()
	run := func(level int, slice uint64, script Script, horizon uint64, opt SOSOptions) goldenCase {
		cfg := arch.Default21264(level)
		var c goldenCase
		var err error
		if c.Naive, err = RunNaive(bg, cfg, slice, script, horizon); err != nil {
			t.Fatal(err)
		}
		if c.SOS, err = RunSOS(bg, cfg, slice, script, horizon, opt); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Solo rates of 3 instructions a cycle make every job about three times
	// longer than nominal on the real core, so the system holds enough
	// jobs to need a schedule.
	solo := fakeSolo()
	for n := range solo {
		solo[n] = 3
	}
	script := func(seed uint64, inter float64, horizon uint64) Script {
		s, err := GenerateScript(seed, inter, 500_000, horizon, solo)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const slice, horizon = 50_000, 4_000_000
	out := map[string]goldenCase{}
	for _, level := range []int{2, 3, 4} {
		// ResponseCompare's arrival rate at lambdaFactor 1.
		s := script(uint64(10+level), 500_000/(0.36*float64(level)), horizon)
		out["level"+string(rune('0'+level))] = run(level, slice, s, horizon, DefaultSOSOptions(s))
	}

	backlog := script(31, 200_000, horizon)
	opt := DefaultSOSOptions(backlog)
	opt.BacklogFactor = 1.5
	opt.BacklogSamples = 2
	out["backlog"] = run(2, slice, backlog, horizon, opt)

	stable := Script{MeanInterarrival: 100_000, MeanJobCycles: 1_000_000}
	for i := 0; i < 5; i++ {
		stable.Arrivals = append(stable.Arrivals, Arrival{At: uint64(i), Benchmark: singleThreadedBenchmarks[i], Work: 1 << 40})
	}
	// SOS only: the naive scheduler has nothing to show on a fixed jobmix.
	sos, err := RunSOS(bg, arch.Default21264(2), 25_000, stable, 6_000_000, SOSOptions{
		Samples: 3, Predictor: core.PredScore, SymbiosInterval: 200_000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["backoff"] = goldenCase{SOS: sos}
	return out
}

// TestGoldenResults compares every case's Results with the pinned ones.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	got := goldenCases(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden on trusted schedulers): %v", err)
	}
	var want map[string]goldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, the run %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: case not run", name)
			continue
		}
		if g.Naive != w.Naive {
			t.Errorf("%s naive:\n got %+v\nwant %+v", name, g.Naive, w.Naive)
		}
		if g.SOS != w.SOS {
			t.Errorf("%s SOS:\n got %+v\nwant %+v", name, g.SOS, w.SOS)
		}
	}
}
