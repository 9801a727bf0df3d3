package experiments

import (
	"context"
	"testing"
)

// TestParallelStudy reproduces the Section 6 contrast at test scale: for
// tight-sync ARRAY, schedules that coschedule its threads dominate
// schedules that split them; for loose-sync ARRAY2 the penalty disappears.
func TestParallelStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	sc := QuickScale()

	tight, err := ParallelStudy(context.Background(), sc, "Jpb(10,2,2)")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Jpb(10,2,2):  cosched avg %.3f, split avg %.3f, chosen cosched=%v (WS %.3f)",
		tight.CoschedAvgWS, tight.SplitAvgWS, tight.ChosenCosched, tight.ChosenWS)
	if tight.CoschedAvgWS <= tight.SplitAvgWS {
		t.Errorf("tight sync: coscheduling ARRAY threads (%.3f) must beat splitting them (%.3f)",
			tight.CoschedAvgWS, tight.SplitAvgWS)
	}

	loose, err := ParallelStudy(context.Background(), sc, "J2pb(10,2,2)")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("J2pb(10,2,2): cosched avg %.3f, split avg %.3f, chosen cosched=%v (WS %.3f)",
		loose.CoschedAvgWS, loose.SplitAvgWS, loose.ChosenCosched, loose.ChosenWS)
	// The loose-sync variant should not pay the huge coscheduling penalty:
	// the gap between classes collapses (the paper finds splitting actually
	// wins by 13%).
	tightGap := tight.CoschedAvgWS / tight.SplitAvgWS
	looseGap := loose.CoschedAvgWS / loose.SplitAvgWS
	if looseGap > 0.9*tightGap {
		t.Errorf("loose sync gap (%.2fx) nearly as large as tight sync gap (%.2fx)", looseGap, tightGap)
	}
}

// TestHierarchicalLevel reproduces one Figure 4 level at test scale: the
// Score-chosen (configuration, schedule) pair must beat the worst.
func TestHierarchicalLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	row, err := hierLevel(context.Background(), 2, QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SMT 2: chosen %.3f (%s), best %.3f, worst %.3f, avg %.3f (%d configs, %d candidates)",
		row.ChosenWS, row.ChosenDesc, row.Best, row.Worst, row.Avg, row.Configs, row.Candidates)
	if row.Configs < 2 {
		t.Errorf("only %d thread configurations explored", row.Configs)
	}
	if row.ChosenWS < row.Worst {
		t.Error("chosen candidate below the worst — impossible")
	}
	if row.Best < row.Worst {
		t.Error("best below worst")
	}
	if row.OverWorstPct < 0 {
		t.Errorf("chosen %.3f under the worst %.3f", row.ChosenWS, row.Worst)
	}
}

// TestHierConfigs: configuration expansion enumerates thread assignments.
func TestHierConfigs(t *testing.T) {
	configs, descs, err := hierConfigs([]string{"CG", "mt_ARRAY", "EP"})
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 2 || len(descs) != 2 {
		t.Fatalf("%d configurations for one mt job, want 2", len(configs))
	}
	seen := map[int]bool{}
	for _, cfg := range configs {
		if cfg[0].Threads != 1 || cfg[2].Threads != 1 {
			t.Error("single-threaded jobs acquired threads")
		}
		seen[cfg[1].Threads] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("mt_ARRAY thread counts explored: %v", seen)
	}
	if _, _, err := hierConfigs([]string{"NOPE"}); err == nil {
		t.Error("unknown job accepted")
	}
}
