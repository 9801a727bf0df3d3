package experiments

import (
	"context"
	"testing"
)

// TestAblationFetchPolicy: the schedule-sensitivity phenomenon must
// survive under both fetch policies, and ICOUNT should not be worse than
// round-robin on aggregate IPC.
func TestAblationFetchPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	rows, err := AblationFetchPolicy(context.Background(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		t.Log(r.String())
		if r.SpreadBestWS <= r.SpreadWorst {
			t.Errorf("%s: no schedule spread", r.Policy)
		}
		spread := (r.SpreadBestWS - r.SpreadWorst) / r.SpreadWorst
		if spread < 0.02 {
			t.Errorf("%s: spread %.1f%% too small — symbiosis vanished", r.Policy, 100*spread)
		}
	}
	if rows[0].IPC < 0.95*rows[1].IPC {
		t.Errorf("ICOUNT IPC %.3f clearly below round-robin %.3f", rows[0].IPC, rows[1].IPC)
	}
}

// TestAblationSampleCount: sampling more schedules never hurts the best
// available choice, and the regret of the Score pick stays bounded.
func TestAblationSampleCount(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	sc := QuickScale()
	sc.Seed = 42 // private cache namespace; this test clears the cache
	rows, err := AblationSampleCount(context.Background(), "Jsb(6,3,1)", sc, []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	defer ClearEvalCache()
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		t.Logf("samples %d: chosen %.3f best %.3f avg %.3f regret %.1f%%",
			r.Samples, r.ChosenWS, r.BestWS, r.AvgWS, 100*r.Regret)
		if r.ChosenWS > r.BestWS+1e-9 {
			t.Error("chosen above sample best — impossible")
		}
		if r.Regret > 0.25 {
			t.Errorf("regret %.1f%% too large", 100*r.Regret)
		}
	}
	if rows[1].BestWS+1e-9 < rows[0].BestWS*0.98 {
		t.Errorf("larger sample found a much worse best (%.3f vs %.3f)", rows[1].BestWS, rows[0].BestWS)
	}
}

// TestColdstartMonotone: weighted speedup improves (or at least does not
// degrade materially) as the timeslice grows and coldstart amortizes.
func TestColdstartMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	rows, err := ColdstartStudy(context.Background(), QuickScale(), []uint64{20_000, 160_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	t.Logf("slice %d: WS %.3f; slice %d: WS %.3f",
		rows[0].SliceCycles, rows[0].WS, rows[1].SliceCycles, rows[1].WS)
	if rows[1].WS < rows[0].WS*0.98 {
		t.Errorf("longer timeslice lost throughput: %.3f vs %.3f", rows[1].WS, rows[0].WS)
	}
}
