package experiments

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/faults"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// Experiment-level golden suite: Figure-1 rows and a fault-injected
// schedule run pinned against the seed kernel. Every case runs at workers=1
// and workers=8 and must produce identical output at both — the kernel
// rewrite must not introduce any order or state dependence on the fan-out.
// Regenerate with:
//
//	go test ./internal/experiments -run TestGoldenExperiments -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_experiments.json from the current kernel")

const expGoldenPath = "testdata/golden_experiments.json"

// goldenScale is deliberately tiny: the golden suite runs on every `go
// test`, so each mix evaluation stays in the tens of millions of simulated
// cycles, not billions.
func goldenScale() Scale {
	return Scale{
		Slice:         20_000,
		LittleDivisor: 4,
		SymbiosCycles: 400_000,
		WarmupCycles:  200_000,
		CalibWarmup:   200_000,
		CalibMeasure:  100_000,
		SampleRounds:  1,
		MaxSamples:    3,
		Seed:          1,
	}
}

type expGolden struct {
	Figure1 []Figure1Row   `json:"figure1"`
	Faulted core.RunResult `json:"faulted"`
	Clean   core.RunResult `json:"clean"`
}

// runFaultCase runs one schedule through a machine with a fault-injecting
// CounterReader interposed (and once clean, as the control). The injector's
// fault pattern is a pure function of its read ordinals, so the observed
// RunResult — noisy SliceIPCs, drop-outs and all — is deterministic and
// golden-able.
func runFaultCase(t *testing.T, fc faults.Config) core.RunResult {
	t.Helper()
	mix := workload.MustMix("Jsb(4,2,2)")
	jobs, err := mix.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(arch.Default21264(mix.SMTLevel), jobs, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Active() {
		m.SetCounterReader(faults.New(fc))
	}
	s := schedule.Schedule{Order: []int{0, 1, 2, 3}, Y: mix.SMTLevel, Z: mix.Swap}
	res, err := m.RunScheduleCtx(context.Background(), s, 4*s.CycleSlices())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func buildExpGolden(t *testing.T) expGolden {
	t.Helper()
	sc := goldenScale()
	labels := []string{"Jsb(4,2,2)", "Jsb(6,3,3)"}

	var atOne, atEight []Figure1Row
	withWorkers(t, 1, func() {
		ClearEvalCache()
		rows, err := Figure1(context.Background(), sc, labels)
		if err != nil {
			t.Fatal(err)
		}
		atOne = rows
	})
	withWorkers(t, 8, func() {
		ClearEvalCache()
		rows, err := Figure1(context.Background(), sc, labels)
		if err != nil {
			t.Fatal(err)
		}
		atEight = rows
	})
	if !reflect.DeepEqual(atOne, atEight) {
		t.Errorf("Figure1 diverges across worker counts:\n w1 %+v\n w8 %+v", atOne, atEight)
	}

	fc := faults.Config{Seed: 42, NoiseSigma: 0.1, DropRate: 0.1, FailRate: 0.05}
	return expGolden{
		Figure1: atOne,
		Faulted: runFaultCase(t, fc),
		Clean:   runFaultCase(t, faults.Config{}),
	}
}

func TestGoldenExperiments(t *testing.T) {
	got := buildExpGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(expGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", expGoldenPath)
		return
	}
	data, err := os.ReadFile(expGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden on a trusted kernel): %v", err)
	}
	var want expGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Figure1, want.Figure1) {
		t.Errorf("Figure1 rows diverged:\n got %+v\nwant %+v", got.Figure1, want.Figure1)
	}
	if !reflect.DeepEqual(got.Faulted, want.Faulted) {
		t.Errorf("faulted run diverged:\n got %+v\nwant %+v", got.Faulted, want.Faulted)
	}
	if !reflect.DeepEqual(got.Clean, want.Clean) {
		t.Errorf("clean run diverged:\n got %+v\nwant %+v", got.Clean, want.Clean)
	}
}
