package experiments

import (
	"context"
	"fmt"

	"symbios/internal/core"
	"symbios/internal/metrics"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// ParallelRow reports the Section 6 study for one parallel mix: whether the
// predictor-chosen schedule coschedules the threads of the parallel job,
// and how schedules that do compare with schedules that do not.
type ParallelRow struct {
	Mix string
	// SiblingTasks are the task indices of the parallel job's threads.
	SiblingTasks [2]int
	// CoschedAvgWS / SplitAvgWS average the symbios weighted speedups of
	// schedules that do / do not put the siblings in one coschedule.
	CoschedAvgWS, SplitAvgWS float64
	// ChosenCosched reports whether the Score-chosen schedule coschedules
	// the siblings; ChosenWS is its weighted speedup.
	ChosenCosched bool
	ChosenWS      float64
	Best, Worst   float64
}

// siblingTasks locates the two threads of the (single) multithreaded job in
// a mix's task list.
func siblingTasks(jobs []*workload.Job) ([2]int, error) {
	idx := 0
	var out [2]int
	found := 0
	for _, j := range jobs {
		for t := 0; t < j.Threads(); t++ {
			if j.Threads() > 1 {
				if found < 2 {
					out[found] = idx
				}
				found++
			}
			idx++
		}
	}
	if found != 2 {
		return out, fmt.Errorf("experiments: expected exactly 2 parallel threads, found %d", found)
	}
	return out, nil
}

// coschedules reports whether schedule s puts tasks a and b in one tuple.
func coschedules(s schedule.Schedule, a, b int) bool {
	for _, tuple := range s.Tuples() {
		hasA, hasB := false, false
		for _, t := range tuple {
			hasA = hasA || t == a
			hasB = hasB || t == b
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// ParallelStudy runs the Jpb(10,2,2) / J2pb(10,2,2) comparison. Random
// sampling alone rarely covers both classes ("most of the random schedules
// did not coschedule the threads of ARRAY"), so the sample set is
// stratified: the random draw is topped up with schedules of whichever
// class is missing.
func ParallelStudy(ctx context.Context, sc Scale, label string) (ParallelRow, error) {
	mix, err := workload.MixByLabel(label)
	if err != nil {
		return ParallelRow{}, err
	}
	jobs, _, err := buildJobs(mix, sc.Seed)
	if err != nil {
		return ParallelRow{}, err
	}
	sib, err := siblingTasks(jobs)
	if err != nil {
		return ParallelRow{}, err
	}

	r := rng.New(rng.Hash2(sc.Seed, 0x9a7a11e1, 0))
	scheds := schedule.Sample(r, mix.Tasks(), mix.SMTLevel, mix.Swap, sc.MaxSamples)
	scheds = ensureBothClasses(r, scheds, mix, sib)

	ev, err := EvalMixSchedules(ctx, mix, scheds, sc)
	if err != nil {
		return ParallelRow{}, err
	}

	row := ParallelRow{Mix: label, SiblingTasks: sib}
	nCo, nSp := 0, 0
	for i, s := range ev.Scheds {
		if coschedules(s, sib[0], sib[1]) {
			row.CoschedAvgWS += ev.WS[i]
			nCo++
		} else {
			row.SplitAvgWS += ev.WS[i]
			nSp++
		}
	}
	if nCo == 0 || nSp == 0 {
		return ParallelRow{}, fmt.Errorf("experiments: sample set for %s lacks a schedule class (cosched=%d split=%d)", label, nCo, nSp)
	}
	row.CoschedAvgWS /= float64(nCo)
	row.SplitAvgWS /= float64(nSp)

	idx := core.Pick(ev.Samples, core.PredScore)
	row.ChosenCosched = coschedules(ev.Scheds[idx], sib[0], sib[1])
	row.ChosenWS = ev.WS[idx]
	row.Best = metrics.Max(ev.WS)
	row.Worst = metrics.Min(ev.WS)
	return row, nil
}

// ensureBothClasses tops up a random sample so it contains at least two
// schedules that coschedule the siblings and two that split them.
func ensureBothClasses(r *rng.Stream, scheds []schedule.Schedule, mix workload.Mix, sib [2]int) []schedule.Schedule {
	const want = 2
	count := func(cosched bool) int {
		n := 0
		for _, s := range scheds {
			if coschedules(s, sib[0], sib[1]) == cosched {
				n++
			}
		}
		return n
	}
	for _, cls := range []bool{true, false} {
		for count(cls) < want {
			s := schedule.Random(r, mix.Tasks(), mix.SMTLevel, mix.Swap)
			if coschedules(s, sib[0], sib[1]) != cls {
				continue
			}
			dup := false
			for _, o := range scheds {
				if o.Canonical() == s.Canonical() {
					dup = true
					break
				}
			}
			if !dup {
				scheds = append(scheds, s)
			}
		}
	}
	return scheds
}
