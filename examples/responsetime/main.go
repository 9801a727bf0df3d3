// Responsetime: an open system with random arrivals, naive versus SOS.
//
// Jobs arrive with exponential interarrival times, run for exponentially
// distributed amounts of work, and depart (Section 9). The same scripted
// arrival sequence is fed to the naive arrival-order scheduler and to SOS
// (which resamples on every arrival, departure, or symbiosis-timer expiry,
// with exponential backoff while its prediction stays confirmed). The
// program reports the mean response time under each and the improvement.
package main

import (
	"context"
	"fmt"
	"log"

	"symbios/internal/arch"
	"symbios/internal/experiments"
	"symbios/internal/queueing"
	"symbios/internal/rng"
)

func main() {
	const level = 3
	cfg := arch.Default21264(level)
	qs := experiments.QuickQueueScale()
	ctx := context.Background()

	fmt.Printf("calibrating solo rates for the job generator...\n")
	solo, err := queueing.CalibrateSolo(ctx, cfg, qs.CalibWarmup, qs.CalibMeasure)
	if err != nil {
		log.Fatal(err)
	}

	// Arrival rate near 90% of machine capacity, so the system stays
	// stable with roughly 2 x SMT-level jobs present (Little's law).
	interarrival := qs.MeanJobCycles / (0.9 * 0.4 * level)
	script, err := queueing.GenerateScript(rng.Hash2(qs.Seed, level, 0x5c21),
		interarrival, qs.MeanJobCycles, qs.Horizon, solo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d arrivals over %d cycles (mean interarrival %.0f, mean job %.0f cycles)\n",
		len(script.Arrivals), qs.Horizon, interarrival, qs.MeanJobCycles)

	naive, err := queueing.RunNaive(ctx, cfg, qs.Slice, script, qs.Horizon)
	if err != nil {
		log.Fatal(err)
	}
	sos, err := queueing.RunSOS(ctx, cfg, qs.Slice, script, qs.Horizon, queueing.DefaultSOSOptions(script))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nnaive scheduler: %d completed, mean response %.0f cycles, N~%.1f\n",
		naive.Completed, naive.MeanResponse, naive.MeanInSystem)
	fmt.Printf("SOS scheduler:   %d completed, mean response %.0f cycles, N~%.1f\n",
		sos.Completed, sos.MeanResponse, sos.MeanInSystem)
	if naive.MeanResponse > 0 {
		fmt.Printf("response time improvement: %.1f%%\n",
			100*(naive.MeanResponse-sos.MeanResponse)/naive.MeanResponse)
	}
}
