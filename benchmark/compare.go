package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// readResults loads a result file: one runResult per line, as -out writes
// them. Traced runs are skipped (per-layer metrics carry no bound); a
// -quick record is an error, because a 3-second window says nothing a
// bound can be held against.
func readResults(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Quick {
			return nil, fmt.Errorf("%s:%d: a -quick run cannot be compared", path, line)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// comparison is one metric of one workload, base against candidate.
type comparison struct {
	workload, metric, unit string
	baseMedian, candMedian float64
	worsePct               float64 // how much worse the candidate's median is, in % of base (negative = better)
	spreadPct              float64 // the wider side's interquartile range, in % of its median
	boundPct               float64
	nBase, nCand           int
	verdict                string
}

// judge compares the candidate's runs of one metric against the base's.
// The candidate regressed when its median is worse than the base's by more
// than the bound. When either side's own run-to-run spread is wider than
// the bound the two cannot be told apart at that resolution, so the
// verdict is unresolved — unless every candidate run reads better than
// every base run, which no amount of spread can explain away.
func judge(base, cand []float64, better string, bound float64) (worse, spread float64, verdict string) {
	mb, mc := median(base), median(cand)
	sign := 1.0 // lower is better: growing is worse
	if better == "higher" {
		sign = -1
	}
	worse = sign * safeDiv(mc-mb, mb)
	for _, xs := range [][]float64{base, cand} {
		q1, q3 := quartiles(xs)
		spread = max(spread, safeDiv(q3-q1, median(xs)))
	}
	allBetter := true
	for _, c := range cand {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && !allBetter:
		return worse, spread, verdictUnresolved
	case worse > bound:
		return worse, spread, verdictRegressed
	default:
		return worse, spread, verdictOK
	}
}

// compareResults judges every (workload, end-to-end metric) pairing both
// sides have runs for. Failed runs poison their workload: a number from a
// run whose answers did not verify is not a measurement.
func compareResults(spec *benchSpec, base, cand []runResult) ([]comparison, error) {
	collect := func(rs []runResult) (map[string]map[string][]float64, error) {
		out := map[string]map[string][]float64{}
		for _, r := range rs {
			if !r.Correct {
				return nil, fmt.Errorf("%s seed %d: run failed verification (%d of %d)", r.Workload, r.Seed, r.Failed, r.Attempted)
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v)
			}
		}
		return out, nil
	}
	b, err := collect(base)
	if err != nil {
		return nil, fmt.Errorf("base: %w", err)
	}
	c, err := collect(cand)
	if err != nil {
		return nil, fmt.Errorf("candidate: %w", err)
	}
	var out []comparison
	for _, w := range spec.Workloads {
		for _, sm := range spec.EndToEnd {
			bs, cs := b[w.Name][sm.Name], c[w.Name][sm.Name]
			if len(bs) == 0 || len(cs) == 0 {
				continue
			}
			worse, spread, verdict := judge(bs, cs, sm.Better, sm.Bound)
			out = append(out, comparison{
				workload: w.Name, metric: sm.Name, unit: sm.Unit,
				baseMedian: median(bs), candMedian: median(cs),
				worsePct: 100 * worse, spreadPct: 100 * spread, boundPct: 100 * sm.Bound,
				nBase: len(bs), nCand: len(cs), verdict: verdict,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the two files share no (workload, end-to-end metric) pairing")
	}
	return out, nil
}

// runCompare is `benchmark -compare base candidate`: the tool the acceptance
// check and a future CI gate both use. Exit 1 when any metric regressed
// past its bound.
func runCompare(w io.Writer, spec *benchSpec, basePath, candPath string) int {
	base, err := readResults(basePath)
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("%s holds no gated (trace 0) runs", basePath)
	}
	var cand []runResult
	if err == nil {
		if cand, err = readResults(candPath); err == nil && len(cand) == 0 {
			err = fmt.Errorf("%s holds no gated (trace 0) runs", candPath)
		}
	}
	var rows []comparison
	if err == nil {
		rows, err = compareResults(spec, base, cand)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
		return exitUsage
	}
	fmt.Fprintf(w, "%-7s %-15s %14s %14s %-4s %8s %8s %7s  %s\n",
		"workload", "metric", "base median", "cand median", "unit", "worse%", "spread%", "bound%", "verdict")
	code := exitOK
	for _, r := range rows {
		fmt.Fprintf(w, "%-7s %-15s %14.4f %14.4f %-4s %+8.2f %8.2f %7.1f  %s (n=%d/%d)\n",
			r.workload, r.metric, r.baseMedian, r.candMedian, r.unit, r.worsePct, r.spreadPct, r.boundPct,
			r.verdict, r.nBase, r.nCand)
		if r.verdict == verdictRegressed {
			code = exitFailed
		}
	}
	return code
}
