// Predictors: compare every dynamic predictor on one jobmix.
//
// Reproduces the Section 5.2 study in miniature: enumerate all 10 schedules
// of Jsb(6,3,3), collect sample-phase counter data for each, run each for a
// symbios phase to learn its true weighted speedup, and show which schedule
// each predictor would have picked — the paper's Table 3 plus Figure 2.
package main

import (
	"context"
	"fmt"
	"log"

	"symbios/internal/core"
	"symbios/internal/experiments"
)

func main() {
	sc := experiments.QuickScale()
	rows, ev, err := experiments.Table3(context.Background(), sc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %6s %8s %6s %6s %6s %8s | %6s\n",
		"Schedule", "IPC", "AllConf", "FQ", "FP", "Sum2", "Balance", "WS(t)")
	for _, r := range rows {
		fmt.Printf("%-10s %6.3f %8.1f %6.2f %6.2f %6.2f %8.3f | %6.3f\n",
			r.Schedule, r.IPC, r.AllConf, r.FQ, r.FP, r.Sum2, r.Balance, r.WS)
	}

	fmt.Printf("\nbest %.3f  worst %.3f  average (oblivious scheduler) %.3f\n\n",
		ev.Best(), ev.Worst(), ev.Avg())

	for _, p := range core.Predictors() {
		idx := core.Pick(ev.Samples, p)
		ws := ev.WS[idx]
		verdict := "ok"
		switch {
		case ws >= ev.Best()-1e-9:
			verdict = "found the best schedule"
		case ws <= ev.Worst()+1e-9:
			verdict = "picked the WORST schedule"
		case ws >= ev.Avg():
			verdict = "beat the random scheduler"
		default:
			verdict = "below the random scheduler"
		}
		fmt.Printf("%-10s -> %-10s WS %.3f  (%s)\n", p, ev.Scheds[idx], ws, verdict)
	}
}
