// Quickstart: run the complete SOS pipeline on one jobmix.
//
// The program builds the paper's Jsb(6,3,3) jobmix (6 single-threaded jobs
// on a 3-context SMT processor, whole running set swapped each timeslice),
// calibrates each job's solo offer rate, lets SOS sample the schedule space
// and pick a schedule with the Score predictor, runs the symbios phase, and
// reports the weighted speedup achieved.
package main

import (
	"context"
	"fmt"
	"log"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/rng"
	"symbios/internal/workload"
)

func main() {
	mix := workload.MustMix("Jsb(6,3,3)")
	cfg := arch.Default21264(mix.SMTLevel)

	const seed = 7
	jobs, err := mix.Build(seed)
	if err != nil {
		log.Fatal(err)
	}

	// Solo offer rates: the weighted-speedup denominators.
	seeds := make([]uint64, len(jobs))
	for i := range seeds {
		seeds[i] = rng.Hash2(seed, uint64(i), 0x3017)
	}
	ctx := context.Background()
	solo, err := core.SoloRates(ctx, cfg, jobs, seeds, 1_000_000, 400_000)
	if err != nil {
		log.Fatal(err)
	}
	for i, j := range jobs {
		fmt.Printf("%-6s solo IPC %.3f\n", j.Name(), solo[i])
	}

	// SOS: sample, optimize, symbios.
	m, err := core.NewMachine(cfg, jobs, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(ctx, m, mix.SMTLevel, mix.Swap, solo, core.Options{
		Samples:       10,
		Predictor:     core.PredScore,
		SymbiosSlices: 60,
		WarmupCycles:  2_000_000,
		Seed:          seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsampled %d schedules over %d cycles:\n", len(res.Samples), res.SampleCycles)
	for i, s := range res.Samples {
		marker := " "
		if i == res.ChosenIdx {
			marker = "*"
		}
		fmt.Printf(" %s %-10s sample IPC %.3f  FQ %.2f%%  FP %.2f%%  balance %.3f\n",
			marker, s.Sched, s.IPC, s.FQ, s.FP, s.Balance)
	}
	fmt.Printf("\nchosen schedule %s -> symbios weighted speedup %.3f over %d cycles\n",
		res.Chosen, res.WeightedSpeedup, res.Symbios.Cycles)
}
