package experiments

import (
	"context"
	"fmt"

	"symbios/internal/arch"
	"symbios/internal/cpu"
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
	solo, err := shardedMap(ctx, "pairwise-solo", names, func(_ context.Context, i int, name string) (float64, error) {
		spec, err := workload.Lookup(name)
		if err != nil {
			return 0, err
		}
		spec.Threads, spec.SyncEvery = 1, 0
		job, err := workload.NewJob(spec, i, rng.Hash2(sc.Seed, uint64(i), 0x9a1))
		if err != nil {
			return 0, err
		}
		return soloOnly(cfg, job, sc)
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
	wss, err := shardedMap(ctx, "pairwise/cell", cells, func(_ context.Context, _ int, cl pairCell) (float64, error) {
		return pairWS(cfg, names, solo, cl, sc)
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

// soloOnly measures one job's solo IPC.
func soloOnly(cfg arch.Config, job *workload.Job, sc Scale) (float64, error) {
	c, err := cpu.New(cfg)
	if err != nil {
		return 0, err
	}
	c.Attach(0, job.Source(0), 0, nil, 0)
	c.Run(sc.CalibWarmup)
	before := c.ThreadCommitted(0)
	c.Run(sc.CalibMeasure)
	rate := float64(c.ThreadCommitted(0)-before) / float64(sc.CalibMeasure)
	if rate <= 0 {
		return 0, fmt.Errorf("experiments: %s made no solo progress", job.Name())
	}
	return rate, nil
}

// pairWS coschedules one benchmark pair continuously on a two-context core
// and returns its weighted speedup.
func pairWS(cfg arch.Config, names []string, solo []float64, cl pairCell, sc Scale) (float64, error) {
	mk := func(name string, id int) (*workload.Job, error) {
		spec, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		spec.Threads, spec.SyncEvery = 1, 0
		return workload.NewJob(spec, id, rng.Hash2(sc.Seed, uint64(id), 0x9a2))
	}
	ja, err := mk(names[cl.i], 0)
	if err != nil {
		return 0, err
	}
	jb, err := mk(names[cl.j], 1)
	if err != nil {
		return 0, err
	}
	c, err := cpu.New(cfg)
	if err != nil {
		return 0, err
	}
	c.Attach(0, ja.Source(0), 0, nil, 0)
	c.Attach(1, jb.Source(0), 0, nil, 0)
	c.Run(sc.WarmupCycles)
	a0, b0 := c.ThreadCommitted(0), c.ThreadCommitted(1)
	measure := sc.SymbiosCycles / 4
	if measure == 0 {
		measure = 1_000_000
	}
	c.Run(measure)
	wsA := float64(c.ThreadCommitted(0)-a0) / float64(measure) / solo[cl.i]
	wsB := float64(c.ThreadCommitted(1)-b0) / float64(measure) / solo[cl.j]
	return wsA + wsB, nil
}
