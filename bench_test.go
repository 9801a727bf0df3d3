// Package symbios's root benchmarks regenerate every table and figure of
// the paper's evaluation. One benchmark per table/figure; custom metrics
// (weighted speedups, improvement percentages) are attached via
// b.ReportMetric so `go test -bench=. -benchmem` prints the reproduced
// results alongside timing.
//
// The benchmarks run at the test scale (QuickScale) so the whole suite
// finishes in minutes; `cmd/sosbench -scale default|paper` runs the same
// drivers at larger scales.
package symbios

import (
	"context"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/cpu"
	"symbios/internal/experiments"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/trace"
	"symbios/internal/workload"
)

func benchScale() experiments.Scale { return experiments.QuickScale() }

// BenchmarkTable2 regenerates Table 2: distinct schedule counts and
// sample-phase lengths for every experiment.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchScale())
		if len(rows) != 13 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkTable3 regenerates Table 3: the Jsb(6,3,3) predictor detail.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, ev, err := experiments.Table3(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("got %d schedules", len(rows))
		}
		b.ReportMetric(ev.Best(), "WS-best")
		b.ReportMetric(ev.Worst(), "WS-worst")
		b.ReportMetric(ev.Avg(), "WS-avg")
	}
}

// BenchmarkFigure1 regenerates Figure 1: worst and best weighted speedup
// for the 13 jobmix combinations.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Every iteration is a cold sweep: the in-process mix-evaluation
		// memo would otherwise make all but the first iteration (and all
		// but the first -count run) a cache read instead of a simulation.
		experiments.ClearEvalCache()
		rows, err := experiments.Figure1(context.Background(), benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		sumSpread := 0.0
		maxSpread := 0.0
		for _, r := range rows {
			sumSpread += r.SpreadPct
			if r.SpreadPct > maxSpread {
				maxSpread = r.SpreadPct
			}
		}
		b.ReportMetric(sumSpread/float64(len(rows)), "avg-spread-%")
		b.ReportMetric(maxSpread, "max-spread-%")
	}
}

// BenchmarkFigure2 regenerates Figure 2: weighted speedup by predictor on
// Jsb(6,3,3).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bars, err := experiments.Figure2(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, bar := range bars {
			if bar.Label == "Score" {
				b.ReportMetric(bar.WS, "WS-score")
			}
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: weighted speedup by predictor
// over every jobmix. It reports the mean Score-predictor gain over the
// average (random) schedule.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure3(context.Background(), benchScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		gain := 0.0
		for _, r := range rows {
			var avg, score float64
			for _, bar := range r.Bars {
				switch bar.Label {
				case "Avg":
					avg = bar.WS
				case "Score":
					score = bar.WS
				}
			}
			gain += 100 * (score - avg) / avg
		}
		b.ReportMetric(gain/float64(len(rows)), "score-over-avg-%")
	}
}

// BenchmarkParallel regenerates the Section 6 study: Jpb(10,2,2) (tight
// synchronization, coscheduling the ARRAY threads wins) versus
// J2pb(10,2,2) (loose synchronization, splitting them wins).
func BenchmarkParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tight, err := experiments.ParallelStudy(context.Background(), benchScale(), "Jpb(10,2,2)")
		if err != nil {
			b.Fatal(err)
		}
		loose, err := experiments.ParallelStudy(context.Background(), benchScale(), "J2pb(10,2,2)")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tight.CoschedAvgWS/tight.SplitAvgWS, "tight-cosched-gain")
		b.ReportMetric(loose.SplitAvgWS/loose.CoschedAvgWS, "loose-split-gain")
	}
}

// BenchmarkFigure4 regenerates Figure 4: hierarchical symbiosis at SMT
// levels 2, 3, 4 and 6.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure4(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		overAvg, overWorst := 0.0, 0.0
		for _, r := range rows {
			overAvg += r.OverAvgPct
			overWorst += r.OverWorstPct
		}
		b.ReportMetric(overAvg/float64(len(rows)), "over-avg-%")
		b.ReportMetric(overWorst/float64(len(rows)), "over-worst-%")
	}
}

// BenchmarkWarmstart regenerates the Section 8 study: full swap versus
// swapping one job per timeslice.
func BenchmarkWarmstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WarmstartStudy(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		gain := 0.0
		for _, r := range rows {
			gain += r.WarmBigGainPct
		}
		b.ReportMetric(gain/float64(len(rows)), "warmstart-gain-%")
	}
}

// BenchmarkFigure5 regenerates Figure 5: response-time improvement of SOS
// over a naive scheduler at SMT levels 2, 3, 4 and 6.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ClearEvalCache() // a cold sweep, as in BenchmarkFigure1
		rows, err := experiments.Figure5(context.Background(), experiments.QuickQueueScale())
		if err != nil {
			b.Fatal(err)
		}
		imp := 0.0
		for _, r := range rows {
			imp += r.ImprovementPct
		}
		b.ReportMetric(imp/float64(len(rows)), "improve-%")
	}
}

// BenchmarkFigure6 regenerates Figure 6: response-time improvement versus
// arrival rate at SMT level 3.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ClearEvalCache() // a cold sweep, as in BenchmarkFigure1
		rows, err := experiments.Figure6(context.Background(), experiments.QuickQueueScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		imp := 0.0
		for _, r := range rows {
			imp += r.ImprovementPct
		}
		b.ReportMetric(imp/float64(len(rows)), "improve-%")
	}
}

// BenchmarkPairwise regenerates a 4x4 corner of the pairwise symbiosis
// matrix: 4 solo calibrations plus 6 independent two-context runs, the
// embarrassingly parallel workload the internal/parallel layer fans out
// (wall-clock scales with core count; results are identical at any
// worker count).
func BenchmarkPairwise(b *testing.B) {
	sc := benchScale()
	names := []string{"FP", "GCC", "IS", "CG"}
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Pairwise(context.Background(), sc, names)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tbl.WS[0][1], "WS-FP-GCC")
	}
}

// BenchmarkCoreCycles measures raw simulator speed: cycles per second with
// three threads resident.
func BenchmarkCoreCycles(b *testing.B) {
	cfg := arch.Default21264(3)
	c, err := cpu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i, name := range []string{"FP", "MG", "GCC"} {
		spec := workload.MustLookup(name)
		job := workload.MustNewJob(spec, i, uint64(42+i))
		c.Attach(i, job.Source(0), 0, nil, 0)
	}
	c.Run(200_000) // warm
	b.ResetTimer()
	c.Run(uint64(b.N))
	b.StopTimer()
	b.ReportMetric(float64(c.Snapshot().Committed)/float64(c.Cycle()), "IPC")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sim_cycles/sec")
}

// BenchmarkTraceAt measures synthetic stream generation one instruction at
// a time — the defining form, which tests and tools read.
func BenchmarkTraceAt(b *testing.B) {
	spec := workload.MustLookup("GCC")
	s, err := trace.NewStream(spec.Params, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink trace.Inst
	for i := 0; i < b.N; i++ {
		sink = s.At(uint64(i))
	}
	_ = sink
}

// BenchmarkTraceFill measures block stream generation, the shape the fetch
// stage consumes: one op is still one instruction, generated sixteen at a
// time into a reused buffer.
func BenchmarkTraceFill(b *testing.B) {
	spec := workload.MustLookup("GCC")
	s, err := trace.NewStream(spec.Params, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf [16]trace.Inst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(buf) {
		s.Fill(uint64(i), buf[:])
	}
}

// BenchmarkTapeFill measures block supply from a recorded tape, the shape
// an evaluation's machines consume: sixteen instructions at a time decoded
// from chunks recorded before the timer starts, so no read generates.
func BenchmarkTapeFill(b *testing.B) {
	spec := workload.MustLookup("GCC")
	s, err := trace.NewStream(spec.Params, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	const span = 1 << 16 // recorded instructions the reads cycle over
	tp := trace.NewTape(s)
	var buf [16]trace.Inst
	for seq := uint64(0); seq < span; seq += uint64(len(buf)) {
		tp.Fill(seq, buf[:])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(buf) {
		tp.Fill(uint64(i)%span, buf[:])
	}
}

// BenchmarkScheduleSample measures distinct-schedule sampling for a large
// space (Jsb(8,4,1): 2520 schedules).
func BenchmarkScheduleSample(b *testing.B) {
	r := rng.New(3)
	for i := 0; i < b.N; i++ {
		if got := schedule.Sample(r, 8, 4, 1, 10); len(got) != 10 {
			b.Fatalf("got %d", len(got))
		}
	}
}

// BenchmarkSOSRun measures one full SOS pipeline (sample + choose +
// symbios) on Jsb(6,3,3).
func BenchmarkSOSRun(b *testing.B) {
	mix := workload.MustMix("Jsb(6,3,3)")
	cfg := arch.Default21264(mix.SMTLevel)
	for i := 0; i < b.N; i++ {
		jobs, err := mix.Build(7)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.NewMachine(cfg, jobs, 50_000)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(context.Background(), m, mix.SMTLevel, mix.Swap, nil, core.Options{
			Samples:       10,
			Predictor:     core.PredScore,
			SymbiosSlices: 40,
			WarmupCycles:  1_000_000,
			Seed:          7,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Samples[res.ChosenIdx].IPC, "chosen-sample-IPC")
	}
}

// BenchmarkLevels runs the SMT-level throughput sweep extension.
func BenchmarkLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ThroughputVsLevel(context.Background(), benchScale(), []int{2, 4, 6})
		if err != nil {
			b.Fatal(err)
		}
		spread := 0.0
		for _, r := range rows {
			spread += r.SpreadPct
		}
		b.ReportMetric(spread/float64(len(rows)), "avg-spread-%")
	}
}

// BenchmarkAblationFetchPolicy compares ICOUNT with round-robin fetch.
func BenchmarkAblationFetchPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationFetchPolicy(context.Background(), benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].WS, "WS-icount")
		b.ReportMetric(rows[1].WS, "WS-roundrobin")
	}
}
