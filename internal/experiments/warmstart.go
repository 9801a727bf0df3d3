package experiments

import (
	"context"

	"symbios/internal/parallel"
)

// WarmstartRow is one Section 8 comparison: a jobmix run with full swap
// (Z = Y) versus swapping only one job per timeslice, at both the big and
// the little timeslice.
type WarmstartRow struct {
	// FullSwap, WarmBig and WarmLittle are the experiment labels: e.g.
	// Jsb(6,3,3), Jsb(6,3,1) and Jsl(6,3,1).
	FullSwap, WarmBig, WarmLittle string
	// Avg weighted speedups across sampled schedules for each policy.
	FullSwapAvg, WarmBigAvg, WarmLittleAvg float64
	// Gains of warmstart scheduling over full swap, in percent.
	WarmBigGainPct, WarmLittleGainPct float64
	// Best weighted speedups, to confirm symbiosis scheduling works under
	// both policies.
	FullSwapBest, WarmBigBest, WarmLittleBest float64
}

// warmstartTriples lists the paper's comparisons. Jsb(5,2,2) has no big-
// slice Z=1 registration in Table 1, so its WarmBig column reuses the
// Jsb(5,2,1) labeling from Table 2.
var warmstartTriples = [][3]string{
	{"Jsb(5,2,2)", "Jsb(5,2,1)", "Jsl(5,2,1)"},
	{"Jsb(6,3,3)", "Jsb(6,3,1)", "Jsl(6,3,1)"},
	{"Jsb(8,4,4)", "Jsb(8,4,1)", "Jsl(8,4,1)"},
}

// WarmstartStudy evaluates each triple and reports the warmstart gains:
// swapping one job at a time lengthens each job's resident timeslice and
// reduces per-switch pressure on the memory subsystem; the little-timeslice
// variant isolates the second effect. Each triple is a resumable checkpoint
// shard.
func WarmstartStudy(ctx context.Context, sc Scale) ([]WarmstartRow, error) {
	return shardedMap(ctx, "warmstart", warmstartTriples[:], func(ctx context.Context, _ int, tr [3]string) (WarmstartRow, error) {
		evs, err := parallel.Map(ctx, tr[:], parallel.Options{}, func(_ int, label string) (*MixEval, error) {
			return EvalMixCached(ctx, label, sc)
		})
		if err != nil {
			return WarmstartRow{}, err
		}
		row := WarmstartRow{
			FullSwap:       tr[0],
			WarmBig:        tr[1],
			WarmLittle:     tr[2],
			FullSwapAvg:    evs[0].Avg(),
			WarmBigAvg:     evs[1].Avg(),
			WarmLittleAvg:  evs[2].Avg(),
			FullSwapBest:   evs[0].Best(),
			WarmBigBest:    evs[1].Best(),
			WarmLittleBest: evs[2].Best(),
		}
		row.WarmBigGainPct = 100 * (row.WarmBigAvg - row.FullSwapAvg) / row.FullSwapAvg
		row.WarmLittleGainPct = 100 * (row.WarmLittleAvg - row.FullSwapAvg) / row.FullSwapAvg
		return row, nil
	})
}
