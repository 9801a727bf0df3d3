package experiments

import (
	"context"
	"math"
	"testing"

	"symbios/internal/core"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// synthEval hand-builds a MixEval whose sample data deterministically
// favours schedule 1, with schedule 2 the true symbios winner — so view
// logic can be tested without simulation.
func synthEval() *MixEval {
	mk := func(order []int) schedule.Schedule {
		return schedule.Schedule{Order: order, Y: 2, Z: 2}
	}
	scheds := []schedule.Schedule{
		mk([]int{0, 1, 2, 3}),
		mk([]int{0, 2, 1, 3}),
		mk([]int{0, 3, 1, 2}),
	}
	samples := []core.Sample{
		{Sched: scheds[0], IPC: 1.0, AllConf: 100, Dcache: 90, FQ: 10, FP: 20, Sum2: 30, Diversity: 0.2, Balance: 0.5,
			Mispredict: 0.05, L2Hit: 90, IQ: 5},
		{Sched: scheds[1], IPC: 3.0, AllConf: 80, Dcache: 95, FQ: 5, FP: 10, Sum2: 15, Diversity: 0.1, Balance: 0.1,
			Mispredict: 0.01, L2Hit: 99, IQ: 1},
		{Sched: scheds[2], IPC: 2.0, AllConf: 90, Dcache: 92, FQ: 8, FP: 15, Sum2: 23, Diversity: 0.15, Balance: 0.3,
			Mispredict: 0.03, L2Hit: 95, IQ: 3},
	}
	return &MixEval{
		Mix:     workload.MustMix("Jsb(4,2,2)"),
		Samples: samples,
		Scheds:  scheds,
		WS:      []float64{1.10, 1.30, 1.45},
	}
}

// TestMixEvalViews: Best/Worst/Avg and PredictorWS are consistent views.
func TestMixEvalViews(t *testing.T) {
	ev := synthEval()
	if ev.Best() != 1.45 || ev.Worst() != 1.10 {
		t.Errorf("best/worst %f/%f", ev.Best(), ev.Worst())
	}
	if math.Abs(ev.Avg()-(1.10+1.30+1.45)/3) > 1e-12 {
		t.Errorf("avg %f", ev.Avg())
	}
	// Every sample-phase signal points at schedule 1, so every scalar
	// predictor (and Score) must return its symbios WS.
	for _, p := range core.Predictors() {
		if got := ev.PredictorWS(p); got != 1.30 {
			t.Errorf("%s WS %f, want 1.30", p, got)
		}
	}
}

// TestFigure2BarsLayout: the bar list leads with Best/Worst/Avg then one
// bar per predictor, in order.
func TestFigure2BarsLayout(t *testing.T) {
	bars := Figure2Bars(synthEval())
	if len(bars) != 3+int(core.NumPredictors) {
		t.Fatalf("%d bars", len(bars))
	}
	if bars[0].Label != "Best" || bars[1].Label != "Worst" || bars[2].Label != "Avg" {
		t.Errorf("leading bars %v", bars[:3])
	}
	if bars[0].WS != 1.45 || bars[1].WS != 1.10 {
		t.Error("best/worst bar values wrong")
	}
	if bars[3].Label != "IPC" || bars[len(bars)-1].Label != "Score" {
		t.Errorf("predictor bars out of order: %s..%s", bars[3].Label, bars[len(bars)-1].Label)
	}
}

// TestCoschedulesHelper: the sibling-detection predicate.
func TestCoschedulesHelper(t *testing.T) {
	s := schedule.Schedule{Order: []int{0, 1, 2, 3}, Y: 2, Z: 2}
	if !coschedules(s, 0, 1) || !coschedules(s, 2, 3) {
		t.Error("tuple members not detected")
	}
	if coschedules(s, 0, 2) || coschedules(s, 1, 3) {
		t.Error("cross-tuple pair detected as coscheduled")
	}
	// Rotating schedule: windows {0,1},{1,2},{2,3},{3,0} — adjacent pairs
	// coschedule, opposite pairs never do.
	rot := schedule.Schedule{Order: []int{0, 1, 2, 3}, Y: 2, Z: 1}
	if !coschedules(rot, 3, 0) {
		t.Error("wraparound window missed")
	}
	if coschedules(rot, 0, 2) {
		t.Error("opposite pair coscheduled in rotation")
	}
}

// TestSiblingTasks finds the parallel job's threads in task order.
func TestSiblingTasks(t *testing.T) {
	mix := workload.MustMix("Jpb(10,2,2)")
	jobs, err := mix.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := siblingTasks(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sib != [2]int{8, 9} {
		t.Errorf("siblings %v, want [8 9]", sib)
	}
	// A single-threaded-only mix has no siblings.
	jobs, err = workload.MustMix("Jsb(6,3,3)").Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := siblingTasks(jobs); err == nil {
		t.Error("sibling detection succeeded on a single-threaded mix")
	}
}

// TestThroughputVsLevelValidation rejects levels that break fairness.
func TestThroughputVsLevelValidation(t *testing.T) {
	if _, err := ThroughputVsLevel(context.Background(), QuickScale(), []int{5}); err == nil {
		t.Error("level 5 does not divide 12 jobs but was accepted")
	}
}
