package core

import (
	"context"
	"testing"

	"symbios/internal/arch"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

func mustMachine(t *testing.T, label string, seed uint64, slice uint64) (*Machine, workload.Mix) {
	t.Helper()
	mix := workload.MustMix(label)
	jobs, err := mix.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(arch.Default21264(mix.SMTLevel), jobs, slice)
	if err != nil {
		t.Fatal(err)
	}
	return m, mix
}

// TestMachineTaskOrder: tasks enumerate (job, thread) pairs in job order,
// so schedule indices are stable and documented.
func TestMachineTaskOrder(t *testing.T) {
	m, mix := mustMachine(t, "Jpb(10,2,2)", 1, 50_000)
	if m.NumTasks() != mix.Tasks() {
		t.Fatalf("%d tasks, want %d", m.NumTasks(), mix.Tasks())
	}
	tasks := m.Tasks()
	// The last two tasks are the two ARRAY threads.
	if tasks[8].Job.Name() != "ARRAY" || tasks[9].Job.Name() != "ARRAY" {
		t.Errorf("tasks 8,9 = %s,%s, want ARRAY threads", tasks[8].Name(), tasks[9].Name())
	}
	if tasks[8].Thread != 0 || tasks[9].Thread != 1 {
		t.Error("ARRAY thread indices wrong")
	}
	if tasks[8].Name() != "ARRAY.0" {
		t.Errorf("task name %q", tasks[8].Name())
	}
	if tasks[0].Name() != "FP" {
		t.Errorf("task 0 name %q", tasks[0].Name())
	}
}

// TestRunScheduleFairness: over full rotations every task runs and
// progresses; committed totals match the per-job bookkeeping.
func TestRunScheduleFairness(t *testing.T) {
	m, mix := mustMachine(t, "Jsb(6,3,3)", 2, 20_000)
	s := schedule.Schedule{Order: []int{0, 1, 2, 3, 4, 5}, Y: mix.SMTLevel, Z: mix.Swap}
	res, err := m.RunScheduleCtx(context.Background(), s, 4*s.CycleSlices())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 8*20_000 {
		t.Errorf("cycles %d", res.Cycles)
	}
	if len(res.SliceIPCs) != 8 {
		t.Errorf("%d slice IPCs", len(res.SliceIPCs))
	}
	var total uint64
	for i, c := range res.Committed {
		if c == 0 {
			t.Errorf("task %d made no progress", i)
		}
		total += c
	}
	if total != res.Counters.Committed {
		t.Errorf("per-task sum %d != aggregate %d", total, res.Counters.Committed)
	}
	for i, task := range m.Tasks() {
		if task.Job.Committed[task.Thread] != res.Committed[i] {
			t.Errorf("task %d: job bookkeeping %d != result %d",
				i, task.Job.Committed[task.Thread], res.Committed[i])
		}
	}
}

// TestRunScheduleResume: consecutive runs continue job progress (no replay
// from zero).
func TestRunScheduleResume(t *testing.T) {
	m, mix := mustMachine(t, "Jsb(6,3,3)", 3, 20_000)
	s := schedule.Schedule{Order: []int{0, 1, 2, 3, 4, 5}, Y: mix.SMTLevel, Z: mix.Swap}
	if _, err := m.RunScheduleCtx(context.Background(), s, 2); err != nil {
		t.Fatal(err)
	}
	prog := append([]uint64(nil), m.Tasks()[0].Job.Progress[0])
	if prog[0] == 0 {
		t.Fatal("no progress recorded after first run")
	}
	if _, err := m.RunScheduleCtx(context.Background(), s, 2); err != nil {
		t.Fatal(err)
	}
	if m.Tasks()[0].Job.Progress[0] <= prog[0] {
		t.Error("second run did not continue from saved progress")
	}
}

// TestRunScheduleRejects: mismatched schedules are refused.
func TestRunScheduleRejects(t *testing.T) {
	m, _ := mustMachine(t, "Jsb(6,3,3)", 4, 20_000)
	if _, err := m.RunScheduleCtx(context.Background(), schedule.Schedule{Order: []int{0, 1, 2}, Y: 3, Z: 3}, 2); err == nil {
		t.Error("schedule over wrong X accepted")
	}
	if _, err := m.RunScheduleCtx(context.Background(), schedule.Schedule{Order: []int{0, 1, 2, 3, 4, 5}, Y: 2, Z: 2}, 2); err == nil {
		t.Error("schedule with Y != contexts accepted")
	}
	if _, err := m.RunScheduleCtx(context.Background(), schedule.Schedule{Order: []int{0, 0, 2, 3, 4, 5}, Y: 3, Z: 3}, 2); err == nil {
		t.Error("invalid permutation accepted")
	}
}

// TestNewMachineRejects: undersized task sets and zero slices are refused.
func TestNewMachineRejects(t *testing.T) {
	mix := workload.MustMix("Jsb(6,3,3)")
	jobs, err := mix.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(arch.Default21264(3), jobs, 0); err == nil {
		t.Error("zero timeslice accepted")
	}
	if _, err := NewMachine(arch.Default21264(8), jobs, 1000); err == nil {
		t.Error("more contexts than tasks accepted")
	}
}

// TestSoloRatesBasic: calibration returns positive per-task rates and does
// not disturb the passed jobs.
func TestSoloRatesBasic(t *testing.T) {
	mix := workload.MustMix("Jsb(4,2,2)")
	jobs, err := mix.Build(9)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1, 2, 3, 4}
	rates, err := SoloRates(context.Background(), arch.Default21264(mix.SMTLevel), jobs, seeds, 100_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 4 {
		t.Fatalf("%d rates", len(rates))
	}
	for i, r := range rates {
		if r <= 0 || r > 8 {
			t.Errorf("task %d solo IPC %f out of range", i, r)
		}
	}
	for _, j := range jobs {
		if j.Progress[0] != 0 || j.Committed[0] != 0 {
			t.Error("calibration disturbed the mix's jobs")
		}
	}
	if _, err := SoloRates(context.Background(), arch.Default21264(2), jobs, seeds[:2], 1000, 1000); err == nil {
		t.Error("seed/job length mismatch accepted")
	}
}

// TestSOSRunEndToEnd: the full pipeline returns a coherent result.
func TestSOSRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	mix := workload.MustMix("Jsb(6,3,3)")
	cfg := arch.Default21264(mix.SMTLevel)
	jobs, err := mix.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, len(jobs))
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	solo, err := SoloRates(context.Background(), cfg, jobs, seeds, 500_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, jobs, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), m, mix.SMTLevel, mix.Swap, solo, Options{
		Samples:       10,
		Predictor:     PredScore,
		SymbiosSlices: 20,
		WarmupCycles:  1_000_000,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 10 {
		t.Errorf("%d samples", len(res.Samples))
	}
	if res.ChosenIdx < 0 || res.ChosenIdx >= len(res.Samples) {
		t.Fatalf("chosen index %d", res.ChosenIdx)
	}
	if !res.Chosen.Equal(res.Samples[res.ChosenIdx].Sched) {
		t.Error("chosen schedule mismatch")
	}
	if res.WeightedSpeedup <= 0.5 || res.WeightedSpeedup > 4 {
		t.Errorf("weighted speedup %f implausible", res.WeightedSpeedup)
	}
	if res.Symbios.Cycles != 20*50_000 {
		t.Errorf("symbios cycles %d", res.Symbios.Cycles)
	}
}

// TestRunOptionValidation: bad options are rejected.
func TestRunOptionValidation(t *testing.T) {
	m, mix := mustMachine(t, "Jsb(6,3,3)", 5, 20_000)
	if _, err := Run(context.Background(), m, mix.SMTLevel, mix.Swap, nil, Options{Samples: 0, SymbiosSlices: 2}); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := Run(context.Background(), m, mix.SMTLevel, mix.Swap, nil, Options{Samples: 1, SymbiosSlices: 0}); err == nil {
		t.Error("zero symbios accepted")
	}
}
