package experiments

import (
	"context"

	"symbios/internal/core"
	"symbios/internal/parallel"
)

// ShootoutRow scores one predictor (paper or experimental) across mixes.
type ShootoutRow struct {
	Name string
	// MeanGainPct is the average gain of the predictor's pick over the
	// random-scheduler expectation across the evaluated mixes.
	MeanGainPct float64
	// WorstPicks counts mixes where the predictor picked the worst
	// schedule of the sample.
	WorstPicks int
	// BestPicks counts mixes where it found the sample's best schedule.
	BestPicks int
}

// PredictorShootout evaluates every predictor — the paper's ten plus the
// experimental variants — head-to-head over the given mixes (defaults to a
// representative trio). It reproduces the paper's exploration process: the
// latency-weighted conflict predictor the authors tried and rejected can be
// compared directly against Score and Composite. The mix evaluations carry
// live samples, so the study is interruptible but not shard-checkpointed.
func PredictorShootout(ctx context.Context, sc Scale, labels []string) ([]ShootoutRow, error) {
	if labels == nil {
		labels = []string{"Jsb(6,3,3)", "Jsb(8,4,4)", "Jsb(5,2,2)"}
	}
	evs, err := parallel.Map(ctx, labels, parallel.Options{}, func(_ int, l string) (*MixEval, error) {
		return EvalMixCached(ctx, l, sc)
	})
	if err != nil {
		return nil, err
	}
	return shootoutFrom(evs), nil
}

// shootoutFrom scores every predictor over pre-evaluated mixes.
func shootoutFrom(evs []*MixEval) []ShootoutRow {
	var rows []ShootoutRow
	score := func(name string, pick func(ev *MixEval) int) {
		row := ShootoutRow{Name: name}
		for _, ev := range evs {
			idx := pick(ev)
			ws := ev.WS[idx]
			row.MeanGainPct += 100 * (ws - ev.Avg()) / ev.Avg()
			if ws <= ev.Worst()+1e-12 {
				row.WorstPicks++
			}
			if ws >= ev.Best()-1e-12 {
				row.BestPicks++
			}
		}
		row.MeanGainPct /= float64(len(evs))
		rows = append(rows, row)
	}

	for _, p := range core.Predictors() {
		p := p
		score(p.String(), func(ev *MixEval) int { return core.Pick(ev.Samples, p) })
	}
	for _, p := range core.ExtPredictors() {
		p := p
		score("x"+p.String(), func(ev *MixEval) int { return core.PickExt(ev.Samples, p) })
	}
	return rows
}
