// Command sosbench regenerates the paper's tables and figures.
//
// Usage:
//
//	sosbench -exp table1|table2|table3|fig1|fig2|fig3|fig4|fig5|fig6|parallel|warmstart|robustness|all
//	         [-scale quick|default|paper] [-seed N] [-mix "Jsb(6,3,3)"]
//	         [-workers N] [-cpuprofile out.pprof] [-memprofile out.pprof]
//	         [-checkpoint snap.ckpt] [-resume snap.ckpt] [-checkpoint-every N]
//	         [-deadline 30m] [-stall-factor 8] [-stall-floor 30s]
//	         [-trace-out spans.jsonl]
//
// Output is plain text formatted like the paper's tables; weighted speedups
// are measured at the selected scale (see internal/experiments for the
// scaling rules). Independent simulations fan out over -workers goroutines
// (default GOMAXPROCS) with bit-identical results at any worker count; see
// internal/parallel for the determinism contract.
//
// Long runs are crash-safe: -checkpoint records completed experiment shards
// to a snapshot file, -resume replays a snapshot (recomputing only what the
// crash interrupted, byte-identically), and -deadline bounds the run's wall
// time, flushing a resumable snapshot before exiting. A stall watchdog
// aborts (and checkpoints) when one simulation window exceeds -stall-factor
// times the median window wall-time. See internal/checkpoint.
//
// Exit codes: 0 success, 1 internal error, 2 usage error, 3 deadline
// exceeded (resumable), 4 stall detected (resumable).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"symbios/internal/buildinfo"
	"symbios/internal/checkpoint"
	"symbios/internal/core"
	"symbios/internal/experiments"
	"symbios/internal/obs"
	"symbios/internal/parallel"
	"symbios/internal/report"
)

// Exit codes. Scripts driving long sweeps branch on these: 3 and 4 mean "a
// valid snapshot was flushed; rerun with -resume", 2 means the invocation
// itself was wrong, 1 everything else.
const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
	exitDeadline = 3
	exitStalled  = 4
)

// knownExperiments is the validated -exp vocabulary, in display order.
var knownExperiments = []string{
	"table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"parallel", "warmstart", "levels", "coldstart", "pairwise", "shootout",
	"ablation", "robustness", "openload", "all",
}

func main() {
	// All teardown (profiles, watchdog) runs via defers inside realMain;
	// os.Exit must stay out here where nothing is pending.
	os.Exit(realMain())
}

func realMain() int {
	var (
		expName    = flag.String("exp", "table3", "experiment(s) to run, comma-separated: "+strings.Join(knownExperiments, ", "))
		scaleName  = flag.String("scale", "default", "cycle budget: quick, default or paper")
		seed       = flag.Uint64("seed", 1, "root random seed")
		mixLabel   = flag.String("mix", "", "restrict fig1/fig3 to one mix label, e.g. 'Jsb(6,3,3)'")
		jsonPath   = flag.String("json", "", "also write structured results to this JSON file")
		workers    = flag.Int("workers", 0, "worker goroutines for independent simulations (0 = GOMAXPROCS; results are identical at any count)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		ckptPath   = flag.String("checkpoint", "", "record completed experiment shards to this snapshot file")
		resumePath = flag.String("resume", "", "resume from this snapshot file (continues recording there unless -checkpoint names another)")
		ckptEvery  = flag.Int("checkpoint-every", 1, "flush the snapshot every N completed shards")
		deadline   = flag.Duration("deadline", 0, "abort (with a resumable snapshot) after this wall time, e.g. 30m")
		stallFct   = flag.Float64("stall-factor", 8, "flag a stall when one window exceeds this multiple of the median window wall-time (0 disables)")
		stallFlr   = flag.Duration("stall-floor", 30*time.Second, "never flag a stall before a window is at least this old")
		traceOut   = flag.String("trace-out", "", "write SOS phase and shard spans to this file as JSON lines")
		version    = flag.Bool("version", false, "print version information and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage: sosbench [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
Exit codes:
  0  success
  1  internal error
  2  usage error (bad flag, unknown experiment, snapshot meta mismatch)
  3  deadline exceeded; a resumable snapshot was flushed (rerun with -resume)
  4  stall detected; a resumable snapshot was flushed (rerun with -resume)
`)
	}
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("sosbench"))
		return exitOK
	}

	exps := strings.Split(*expName, ",")
	for _, e := range exps {
		if !knownExperiment(e) {
			fmt.Fprintf(os.Stderr, "sosbench: unknown experiment %q\nvalid experiments: %s\n",
				e, strings.Join(knownExperiments, ", "))
			return exitUsage
		}
	}
	sc, err := scaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sosbench:", err)
		return exitUsage
	}
	if *deadline < 0 {
		fmt.Fprintln(os.Stderr, "sosbench: -deadline must be positive")
		return exitUsage
	}

	if *workers != 0 {
		parallel.SetDefaultWorkers(*workers)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			return exitInternal
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			return exitInternal
		}
		defer pprof.StopCPUProfile()
	}

	sc.Seed = *seed
	qs := experiments.DefaultQueueScale()
	if *scaleName == "quick" {
		qs = experiments.QuickQueueScale()
	}
	qs.Seed = *seed

	var labels []string
	if *mixLabel != "" {
		labels = []string{*mixLabel}
	}

	// The context carries the run's whole robustness apparatus: the deadline
	// budget, the cancel-with-cause channel the watchdog fires into, the
	// shard recorder and the watchdog itself.
	ctx := context.Background()
	if *deadline > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, *deadline)
		defer stop()
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// The snapshot meta pins the flags that determine every shard's value;
	// resuming under different flags is refused rather than silently mixing
	// two runs' numbers.
	meta := checkpoint.Meta{Exp: *expName, Scale: *scaleName, Seed: *seed, Mix: *mixLabel}
	var rec *checkpoint.Recorder
	switch {
	case *resumePath != "":
		rec, err = checkpoint.Resume(*resumePath, *ckptPath, meta, *ckptEvery)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			if errors.Is(err, checkpoint.ErrMetaMismatch) {
				return exitUsage
			}
			return exitInternal
		}
		fmt.Fprintf(os.Stderr, "sosbench: resuming from %s (%d shards recorded)\n", *resumePath, rec.Shards())
	case *ckptPath != "":
		rec = checkpoint.NewRecorder(*ckptPath, meta, *ckptEvery)
	}
	if rec != nil {
		ctx = checkpoint.WithRecorder(ctx, rec)
	}

	// The tracer rides the same context: every SOS phase and experiment shard
	// emits one JSONL span. Tracing is observational only — outputs stay
	// bit-identical with it on or off (see the obs determinism tests).
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			return exitInternal
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sosbench: trace close:", err)
			}
		}()
		tracer = obs.NewTracer(f, nil)
		ctx = obs.WithTracer(ctx, tracer)
	}

	if *stallFct > 0 && (rec != nil || *deadline > 0) {
		wd := checkpoint.NewWatchdog(checkpoint.WatchdogConfig{
			Factor: *stallFct,
			Floor:  *stallFlr,
			OnStall: func(e *checkpoint.StallError) {
				// Checkpoint, then abort: the snapshot covers every shard
				// completed before the stall, so the rerun loses only the
				// stuck window.
				_ = rec.Flush()
				cancel(e)
			},
		})
		defer wd.Stop()
		ctx = checkpoint.WithWatchdog(ctx, wd)
	}

	results := map[string]any{}
	var runErr error
	for _, exp := range exps {
		if runErr = run(ctx, exp, sc, qs, labels, results); runErr != nil {
			break
		}
	}
	// Whatever happened, persist completed shards: the snapshot is the whole
	// point of a budgeted run.
	if rec != nil {
		if ferr := rec.Flush(); ferr != nil && runErr == nil {
			runErr = ferr
		}
		if rec.Hits() > 0 {
			fmt.Fprintf(os.Stderr, "sosbench: resume replayed %d shards without recomputation\n", rec.Hits())
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "sosbench:", runErr)
		cause := context.Cause(ctx)
		switch {
		case errors.Is(runErr, checkpoint.ErrStalled) || errors.Is(cause, checkpoint.ErrStalled):
			resumeHint(rec)
			return exitStalled
		case errors.Is(runErr, context.DeadlineExceeded) || errors.Is(cause, context.DeadlineExceeded):
			resumeHint(rec)
			return exitDeadline
		default:
			return exitInternal
		}
	}
	if tracer != nil {
		if err := tracer.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "sosbench: trace write:", err)
			return exitInternal
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			return exitInternal
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			return exitInternal
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			return exitInternal
		}
	}
	if *memProfile != "" {
		runtime.GC() // report live allocations, not transient garbage
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			return exitInternal
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			return exitInternal
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			return exitInternal
		}
	}
	return exitOK
}

// resumeHint tells the operator how to pick the run back up.
func resumeHint(rec *checkpoint.Recorder) {
	if rec != nil && rec.Shards() > 0 {
		fmt.Fprintf(os.Stderr, "sosbench: %d shards saved; rerun with -resume %s to continue\n",
			rec.Shards(), rec.Path())
	}
}

func knownExperiment(name string) bool {
	for _, k := range knownExperiments {
		if name == k {
			return true
		}
	}
	return false
}

func scaleByName(name string) (experiments.Scale, error) {
	switch name {
	case "quick":
		return experiments.QuickScale(), nil
	case "default":
		return experiments.DefaultScale(), nil
	case "paper":
		return experiments.PaperScale(), nil
	}
	return experiments.Scale{}, fmt.Errorf("unknown scale %q (valid: quick, default, paper)", name)
}

func run(ctx context.Context, exp string, sc experiments.Scale, qs experiments.QueueScale, labels []string, results map[string]any) error {
	switch exp {
	case "all":
		for _, e := range []string{"table1", "table2", "table3", "fig1", "fig2", "fig3", "parallel", "fig4", "warmstart", "fig5", "fig6"} {
			if err := run(ctx, e, sc, qs, labels, results); err != nil {
				return err
			}
		}
		return nil

	case "table1":
		fmt.Println("== Table 1: applications used in each experiment ==")
		results["table1"] = experiments.Table1()
		for _, r := range experiments.Table1() {
			fmt.Printf("%-36s %s\n", r.Experiments, strings.Join(r.Jobs, ","))
		}

	case "table2":
		fmt.Println("== Table 2: distinct schedules and sample-phase length ==")
		fmt.Printf("%-14s %18s %22s %24s\n", "Experiment", "Distinct Schedules", "Sample Cycles (scaled)", "Million Sample Cycles")
		results["table2"] = experiments.Table2(sc)
		for _, r := range experiments.Table2(sc) {
			fmt.Printf("%-14s %18s %22d %24d\n", r.Experiment, r.DistinctSchedules, r.SampleCycles, r.PaperSampleMCycles)
		}

	case "table3":
		fmt.Println("== Table 3: Jsb(6,3,3) predictor detail ==")
		rows, ev, err := experiments.Table3(ctx, sc)
		if err != nil {
			return err
		}
		results["table3"] = rows
		fmt.Printf("%-10s %6s %8s %7s %6s %6s %6s %9s %8s %9s | %6s\n",
			"Schedule", "IPC", "AllConf", "Dcache", "FQ", "FP", "Sum2", "Diversity", "Balance", "Composite", "WS(t)")
		for _, r := range rows {
			fmt.Printf("%-10s %6.3f %8.2f %7.1f %6.2f %6.2f %6.2f %9.3f %8.3f %9.2f | %6.3f\n",
				r.Schedule, r.IPC, r.AllConf, r.Dcache, r.FQ, r.FP, r.Sum2, r.Diversity, r.Balance, r.Composite, r.WS)
		}
		fmt.Printf("best %.3f  worst %.3f  avg %.3f\n", ev.Best(), ev.Worst(), ev.Avg())

	case "fig1":
		fmt.Println("== Figure 1: worst and best weighted speedup per jobmix ==")
		rows, err := experiments.Figure1(ctx, sc, labels)
		if err != nil {
			return err
		}
		results["fig1"] = rows
		fmt.Printf("%-14s %7s %7s %7s %9s %10s %6s\n", "Mix", "Worst", "Best", "Avg", "Spread%", "BestvsAvg%", "Scheds")
		for _, r := range rows {
			fmt.Printf("%-14s %7.3f %7.3f %7.3f %9.1f %10.1f %6d\n",
				r.Mix, r.Worst, r.Best, r.Avg, r.SpreadPct, r.OverAvgPct, r.NumSchedules)
		}

	case "fig2":
		fmt.Println("== Figure 2: weighted speedup by predictor, Jsb(6,3,3) ==")
		bars, err := experiments.Figure2(ctx, sc)
		if err != nil {
			return err
		}
		results["fig2"] = bars
		printBars(bars)

	case "fig3":
		fmt.Println("== Figure 3: weighted speedup by predictor, all jobmixes ==")
		rows, err := experiments.Figure3(ctx, sc, labels)
		if err != nil {
			return err
		}
		results["fig3"] = rows
		for _, r := range rows {
			fmt.Printf("-- %s --\n", r.Mix)
			printBars(r.Bars)
		}

	case "parallel":
		fmt.Println("== Section 6: parallel workload scheduling ==")
		var parallelRows []experiments.ParallelRow
		for _, label := range []string{"Jpb(10,2,2)", "J2pb(10,2,2)"} {
			row, err := experiments.ParallelStudy(ctx, sc, label)
			if err != nil {
				return err
			}
			parallelRows = append(parallelRows, row)
			fmt.Printf("%-14s cosched-avg %.3f  split-avg %.3f  chosen cosched=%v WS %.3f  (best %.3f worst %.3f)\n",
				row.Mix, row.CoschedAvgWS, row.SplitAvgWS, row.ChosenCosched, row.ChosenWS, row.Best, row.Worst)
		}
		results["parallel"] = parallelRows

	case "fig4":
		fmt.Println("== Figure 4: hierarchical symbiosis ==")
		rows, err := experiments.Figure4(ctx, sc)
		if err != nil {
			return err
		}
		results["fig4"] = rows
		fmt.Printf("%-10s %8s %8s %8s %8s %10s %11s %s\n", "SMT level", "Chosen", "Best", "Worst", "Avg", "OverAvg%", "OverWorst%", "Chosen alloc")
		for _, r := range rows {
			fmt.Printf("%-10d %8.3f %8.3f %8.3f %8.3f %10.1f %11.1f %s\n",
				r.SMTLevel, r.ChosenWS, r.Best, r.Worst, r.Avg, r.OverAvgPct, r.OverWorstPct, r.ChosenDesc)
		}

	case "warmstart":
		fmt.Println("== Section 8: warmstart scheduling ==")
		rows, err := experiments.WarmstartStudy(ctx, sc)
		if err != nil {
			return err
		}
		results["warmstart"] = rows
		for _, r := range rows {
			fmt.Printf("%-12s avg %.3f | %-12s avg %.3f (%+.1f%%) | %-12s avg %.3f (%+.1f%%)\n",
				r.FullSwap, r.FullSwapAvg, r.WarmBig, r.WarmBigAvg, r.WarmBigGainPct,
				r.WarmLittle, r.WarmLittleAvg, r.WarmLittleGainPct)
		}

	case "fig5":
		fmt.Println("== Figure 5: response time improvement vs SMT level ==")
		rows, err := experiments.Figure5(ctx, qs)
		if err != nil {
			return err
		}
		results["fig5"] = rows
		printResponse(rows)

	case "fig6":
		fmt.Println("== Figure 6: response time improvement vs arrival rate (SMT=3) ==")
		rows, err := experiments.Figure6(ctx, qs, nil)
		if err != nil {
			return err
		}
		results["fig6"] = rows
		printResponse(rows)

	case "openload":
		fmt.Println("== Extension: open-system overload sweep (SMT=3, 0.5x-1.5x capacity) ==")
		rows, err := experiments.OpenLoad(ctx, qs, nil)
		if err != nil {
			return err
		}
		results["openload"] = rows
		printOpenLoad(rows)

	case "shootout":
		fmt.Println("== Extension: predictor shootout (paper's ten + experimental variants) ==")
		rows, err := experiments.PredictorShootout(ctx, sc, nil)
		if err != nil {
			return err
		}
		results["shootout"] = rows
		fmt.Printf("%-14s %10s %6s %6s\n", "Predictor", "MeanGain%", "Best", "Worst")
		for _, r := range rows {
			fmt.Printf("%-14s %10.1f %6d %6d\n", r.Name, r.MeanGainPct, r.BestPicks, r.WorstPicks)
		}

	case "pairwise":
		fmt.Println("== Extension: pairwise symbiosis matrix (WS of each pair on a 2-context machine) ==")
		tbl, err := experiments.Pairwise(ctx, sc, nil)
		if err != nil {
			return err
		}
		results["pairwise"] = tbl
		if err := report.Matrix(os.Stdout, tbl.Names, tbl.WS); err != nil {
			return err
		}

	case "coldstart":
		fmt.Println("== Section 8 extension: coldstart amortization vs timeslice length (Jsb(6,3,3), schedule 012_345) ==")
		rows, err := experiments.ColdstartStudy(ctx, sc, nil)
		if err != nil {
			return err
		}
		results["coldstart"] = rows
		fmt.Printf("%-12s %8s %8s %8s\n", "slice", "WS", "IPC", "L1D hit%")
		for _, r := range rows {
			fmt.Printf("%-12d %8.3f %8.3f %8.1f\n", r.SliceCycles, r.WS, r.IPC, r.L1DHitPct)
		}

	case "levels":
		fmt.Println("== Extension: throughput and schedule sensitivity vs SMT level (12-job mix) ==")
		rows, err := experiments.ThroughputVsLevel(ctx, sc, nil)
		if err != nil {
			return err
		}
		results["levels"] = rows
		fmt.Printf("%-10s %7s %7s %7s %9s %9s %10s\n", "SMT level", "Worst", "Best", "Avg", "Spread%", "Score", "ScoreGain%")
		for _, r := range rows {
			fmt.Printf("%-10d %7.3f %7.3f %7.3f %9.1f %9.3f %10.1f\n",
				r.SMTLevel, r.Worst, r.Best, r.Avg, r.SpreadPct, r.ScoreWS, r.ScoreGainPct)
		}

	case "ablation":
		fmt.Println("== Ablation: fetch policy (Jsb(6,3,3)) ==")
		fps, err := experiments.AblationFetchPolicy(ctx, sc)
		if err != nil {
			return err
		}
		results["ablation_fetch"] = fps
		for _, r := range fps {
			fmt.Println(" ", r)
		}
		fmt.Println("== Ablation: sample count (Jsb(8,4,1)) ==")
		scs, err := experiments.AblationSampleCount(ctx, "Jsb(8,4,1)", sc, nil)
		if err != nil {
			return err
		}
		for _, r := range scs {
			fmt.Printf("  samples %2d: chosen WS %.3f  sample-best %.3f  avg %.3f  regret %.1f%%\n",
				r.Samples, r.ChosenWS, r.BestWS, r.AvgWS, 100*r.Regret)
		}
		fmt.Println("== Ablation: sampling-seed robustness (Jsb(6,3,3)) ==")
		srs, err := experiments.AblationSeeds(ctx, "Jsb(6,3,3)", sc, nil)
		if err != nil {
			return err
		}
		for _, r := range srs {
			fmt.Printf("  seed %d: chosen WS %.3f  avg %.3f  gain %+.1f%%\n", r.Seed, r.ChosenWS, r.AvgWS, r.GainPct)
		}

	case "robustness":
		fmt.Println("== Robustness: predictor degradation vs counter faults, with churned adaptive SOS ==")
		var mixes []string
		if len(labels) > 0 {
			mixes = labels
		}
		rows, err := experiments.Robustness(ctx, sc, mixes, nil, nil)
		if err != nil {
			return err
		}
		results["robustness"] = rows
		printRobustness(rows)

	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func printRobustness(rows []experiments.RobustnessRow) {
	preds := core.Predictors()
	fmt.Printf("%-12s %-28s %7s", "Mix", "Fault", "Naive")
	for _, p := range preds {
		fmt.Printf(" %9s", p)
	}
	fmt.Printf(" | %8s %4s %4s %4s %4s\n", "Adaptive", "rsmp", "rtry", "fbk", "lost")
	for _, r := range rows {
		fmt.Printf("%-12s %-28s %7.3f", r.Mix, r.Fault, r.NaiveWS)
		for _, p := range preds {
			fmt.Printf(" %9.3f", r.PredWS[p.String()])
		}
		fmt.Printf(" | %8.3f %4d %4d %4d %4d\n",
			r.AdaptiveWS, r.Resamples, r.Retries, r.FallbackSlices, r.LostWindows)
	}
}

func printBars(bars []experiments.Figure2Bar) {
	for _, b := range bars {
		fmt.Printf("  %-10s %6.3f  %s\n", b.Label, b.WS, strings.Repeat("#", int(b.WS*20)))
	}
}

func printOpenLoad(rows []experiments.OpenLoadRow) {
	fmt.Printf("%-8s %6s %-12s %12s %12s %12s %12s %6s %6s\n",
		"Dist", "Load", "Scheduler", "mean RT", "p50", "p99", "p99.9", "done", "shrunk")
	for _, r := range rows {
		fmt.Printf("%-8s %5.2fx %-12s %12.0f %12.0f %12.0f %12.0f %6d %6d\n",
			r.Dist, r.Factor, r.Scheduler, r.MeanResponse, r.P50, r.P99, r.P999, r.Completed, r.ShrunkPhases)
	}
}

func printResponse(rows []experiments.ResponseRow) {
	fmt.Printf("%-10s %14s %12s %12s %12s %8s\n", "SMT level", "interarrival", "naive RT", "SOS RT", "improve%", "N~")
	for _, r := range rows {
		fmt.Printf("%-10d %14.0f %12.0f %12.0f %12.1f %8.1f\n",
			r.SMTLevel, r.Lambda, r.NaiveResponse, r.SOSResponse, r.ImprovementPct, r.MeanJobsInSystem)
	}
}
