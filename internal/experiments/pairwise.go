package experiments

import (
	"context"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/rng"
	"symbios/internal/workload"
)

// PairTable is the pairwise symbiosis matrix the authors explored in their
// earlier workshop work ("Explorations in symbiosis on two multithreaded
// architectures"): for every pair of benchmarks, the weighted speedup of
// coscheduling them on a 2-context machine. Values above 1 mean the pair
// symbioses; the spread across a row shows how much a job's performance
// depends on its partner — the phenomenon SOS exploits.
type PairTable struct {
	Names []string
	// WS[i][j] is the pair's weighted speedup; the diagonal holds 1 by
	// definition (a job time-shared with itself gains nothing).
	WS [][]float64
}

// Pairwise builds the symbiosis matrix for the given benchmarks (defaults
// to the paper's single-threaded Table 1 jobs). Each solo calibration and
// each matrix cell is a resumable checkpoint shard.
func Pairwise(ctx context.Context, sc Scale, names []string) (*PairTable, error) {
	if names == nil {
		names = []string{"FP", "MG", "WAVE", "SWIM", "GCC", "GO", "IS", "CG", "EP"}
	}
	cfg := arch.Default21264(2)

	// Solo rates, one calibration per benchmark; each runs on its own
	// machine, so the calibrations fan out.
	solo, err := shardedMap(ctx, "pairwise-solo", names, func(ctx context.Context, i int, name string) (float64, error) {
		job, seed, err := pairJob(name, i, sc.Seed, 0x9a1)
		if err != nil {
			return 0, err
		}
		rates, err := core.SoloRate(ctx, cfg, job, seed, sc.CalibWarmup, sc.CalibMeasure)
		if err != nil {
			return 0, err
		}
		return rates[0], nil
	})
	if err != nil {
		return nil, err
	}

	t := &PairTable{Names: names, WS: make([][]float64, len(names))}
	for i := range names {
		t.WS[i] = make([]float64, len(names))
		t.WS[i][i] = 1
	}
	// The upper-triangle cells are independent two-context simulations —
	// the embarrassingly parallel heart of the matrix — one work item and
	// one checkpoint shard each.
	var cells []pairCell
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			cells = append(cells, pairCell{i, j})
		}
	}
	wss, err := shardedMap(ctx, "pairwise/cell", cells, func(ctx context.Context, _ int, cl pairCell) (float64, error) {
		return pairWS(ctx, cfg, names, solo, cl, sc)
	})
	if err != nil {
		return nil, err
	}
	for k, c := range cells {
		t.WS[c.i][c.j], t.WS[c.j][c.i] = wss[k], wss[k]
	}
	return t, nil
}

// pairCell indexes one upper-triangle cell of the matrix.
type pairCell struct{ i, j int }

// pairJob instantiates benchmark name, single-threaded, as job id of the
// matrix, returning it with its stream seed.
func pairJob(name string, id int, seed, salt uint64) (*workload.Job, uint64, error) {
	spec, err := workload.Lookup(name)
	if err != nil {
		return nil, 0, err
	}
	spec.Threads, spec.SyncEvery = 1, 0
	seed = rng.Hash2(seed, uint64(id), salt)
	job, err := workload.NewJob(spec, id, seed)
	return job, seed, err
}

// pairWS coschedules one benchmark pair continuously on a two-context core
// and returns its weighted speedup.
func pairWS(ctx context.Context, cfg arch.Config, names []string, solo []float64, cl pairCell, sc Scale) (float64, error) {
	ja, _, err := pairJob(names[cl.i], 0, sc.Seed, 0x9a2)
	if err != nil {
		return 0, err
	}
	jb, _, err := pairJob(names[cl.j], 1, sc.Seed, 0x9a2)
	if err != nil {
		return 0, err
	}
	measure := sc.SymbiosCycles / 4
	if measure == 0 {
		measure = 1_000_000
	}
	rates, err := core.CoRun(ctx, cfg, []*workload.Job{ja, jb}, sc.WarmupCycles, measure)
	if err != nil {
		return 0, err
	}
	return rates[0]/solo[cl.i] + rates[1]/solo[cl.j], nil
}
