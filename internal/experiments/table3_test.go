package experiments

import (
	"context"
	"testing"

	"symbios/internal/core"
)

// TestTable3AndFigure2 reproduces the Jsb(6,3,3) study at test scale and
// checks the paper's qualitative claims: schedules differ, most predictors
// avoid the worst schedule, and Score lands near the best.
func TestTable3AndFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	rows, ev, err := Table3(context.Background(), QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("Jsb(6,3,3) must enumerate 10 schedules, got %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-9s IPC %.3f AllConf %6.1f Dcache %5.1f FQ %5.2f FP %5.2f Sum2 %5.2f Div %.3f Bal %.3f Comp %.2f | WS %.3f",
			r.Schedule, r.IPC, r.AllConf, r.Dcache, r.FQ, r.FP, r.Sum2, r.Diversity, r.Balance, r.Composite, r.WS)
	}
	best, worst, avg := ev.Best(), ev.Worst(), ev.Avg()
	t.Logf("best %.3f worst %.3f avg %.3f", best, worst, avg)
	if best <= worst {
		t.Fatal("no spread")
	}
	for _, p := range core.Predictors() {
		ws := ev.PredictorWS(p)
		t.Logf("%-10s -> WS %.3f (of best %.3f)", p, ws, best)
	}
	score := ev.PredictorWS(core.PredScore)
	if score < avg {
		t.Errorf("Score predictor (%.3f) below the random-scheduler expectation (%.3f)", score, avg)
	}
}
