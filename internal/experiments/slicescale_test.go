package experiments

import (
	"context"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/metrics"
	"symbios/internal/workload"
)

// TestSliceScaling is a diagnostic: weighted speedup of one Jsb(6,3,3)
// schedule as a function of timeslice length. Too-small slices overstate
// context-switch coldstart relative to the paper's 5M-cycle slices; the
// chosen default scale must sit on the flat part of this curve.
func TestSliceScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic sweep")
	}
	mix := workload.MustMix("Jsb(6,3,3)")
	cfg := arch.Default21264(mix.SMTLevel)
	jobs, seeds, err := buildJobs(mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := core.SoloRates(context.Background(), cfg, jobs, seeds, 1_500_000, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	scheds, _ := EnumerateFor(mix)
	s := scheds[1] // 013_245
	for _, slice := range []uint64{50_000, 250_000, 1_000_000} {
		jobs, _, err := buildJobs(mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMachine(cfg, jobs, slice)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Warm(context.Background(), s, 2_000_000); err != nil {
			t.Fatal(err)
		}
		res, err := m.RunScheduleCtx(context.Background(), s, 8*s.CycleSlices())
		if err != nil {
			t.Fatal(err)
		}
		ws, err := metrics.WeightedSpeedup(res.Cycles, res.Committed, solo)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("slice %7d: WS %.3f IPC %.3f L1D %.1f%%", slice, ws, res.Counters.IPC(), 100*res.Counters.L1DHitRate())
	}
}
