package experiments

import (
	"context"
	"testing"
)

// TestResponseCompare reproduces the Section 9 comparison at test scale on
// one SMT level: SOS must deliver a response time no worse than a few
// percent above the naive scheduler's (the paper sees 8-18% improvements;
// at small scale we assert non-inferiority plus a stable system).
func TestResponseCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	row, err := ResponseCompare(context.Background(), 3, QuickQueueScale(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SMT %d: naive RT %.0f (n=%d), SOS RT %.0f (n=%d), improvement %.1f%%, N~%.1f",
		row.SMTLevel, row.NaiveResponse, row.NaiveCompleted, row.SOSResponse, row.SOSCompleted,
		row.ImprovementPct, row.MeanJobsInSystem)
	if row.NaiveCompleted < 3 || row.SOSCompleted < 3 {
		t.Fatalf("too few completions for a meaningful comparison")
	}
	if row.ImprovementPct < -10 {
		t.Errorf("SOS response time (%.0f) much worse than naive (%.0f)", row.SOSResponse, row.NaiveResponse)
	}
}
