package core

import (
	"context"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/metrics"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// TestScheduleSpread reproduces the paper's central observation at small
// scale: on Jsb(6,3,3) different schedules of the same jobmix deliver
// different weighted speedups, and the spread is material (the paper sees
// 17% between best and worst on this mix).
func TestScheduleSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	mix := workload.MustMix("Jsb(6,3,3)")
	cfg := arch.Default21264(mix.SMTLevel)

	jobs, err := mix.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, len(jobs))
	for i := range seeds {
		seeds[i] = rng.Hash2(7, uint64(i), 0x3017)
	}
	solo, err := SoloRates(context.Background(), cfg, jobs, seeds, 100_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}

	scheds, err := schedule.Enumerate(6, 3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}

	const slice = 50_000
	var wss []float64
	for _, s := range scheds {
		jobs, err := mix.Build(7) // fresh jobs: comparable starting state
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(cfg, jobs, slice)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up one rotation, then measure ten rotations.
		if _, err := m.RunScheduleCtx(context.Background(), s, s.CycleSlices()); err != nil {
			t.Fatal(err)
		}
		res, err := m.RunScheduleCtx(context.Background(), s, 10*s.CycleSlices())
		if err != nil {
			t.Fatal(err)
		}
		ws, err := metrics.WeightedSpeedup(res.Cycles, res.Committed, solo)
		if err != nil {
			t.Fatal(err)
		}
		wss = append(wss, ws)
		t.Logf("%-12s WS %.3f  IPC %.3f", s, ws, res.Counters.IPC())
	}
	best, worst, avg := metrics.Max(wss), metrics.Min(wss), metrics.Mean(wss)
	t.Logf("best %.3f worst %.3f avg %.3f spread %.1f%%", best, worst, avg, 100*(best-worst)/worst)
	if best <= worst {
		t.Fatalf("no spread between schedules")
	}
	if (best-worst)/worst < 0.02 {
		t.Errorf("spread %.1f%% too small for symbiosis to matter", 100*(best-worst)/worst)
	}
}
