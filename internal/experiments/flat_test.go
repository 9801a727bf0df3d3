package experiments

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// TestMixTasksOrder: the flat task list is ordered by simulated-cycle budget
// descending, ties broken by position in the list as built (symbios runs in
// schedule order, the sample chain, calibrations in job order), holds every
// task exactly once, and is the same on every call.
func TestMixTasksOrder(t *testing.T) {
	type key struct{ kind, idx int }
	for _, tc := range []struct {
		label string
		sc    Scale
		// want is the expected order by kind: s a symbios run, m the sample
		// chain, c a calibration.
		want string
	}{
		// Symbios 2.48M cycles > sample chain 1.84M > calibration 1.3M.
		{"Jsb(6,3,3)", QuickScale(), "ssssssssssmcccccc"},
		{"Jsb(6,3,3)", goldenScale(), "sssmcccccc"},
		// Ten five-slice rotations make the sample chain (3.2M) the longest
		// task of all: the one inelastic job goes first.
		{"Jpb(10,2,2)", QuickScale(), "mssssssssssccccccccc"},
		// A calibration-heavy scale puts the calibrations first.
		{"Jsb(4,2,2)", Scale{Slice: 20_000, LittleDivisor: 4, SymbiosCycles: 100_000, WarmupCycles: 100_000,
			CalibWarmup: 900_000, CalibMeasure: 100_000, SampleRounds: 1, MaxSamples: 10}, "ccccmsss"},
	} {
		mix := workload.MustMix(tc.label)
		scheds, err := EnumerateFor(mix)
		if err != nil {
			t.Fatal(err)
		}
		if len(scheds) > tc.sc.MaxSamples {
			scheds = scheds[:tc.sc.MaxSamples]
		}
		jobs, _, err := buildJobs(mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		slice := tc.sc.sliceFor(mix)
		tasks := mixTasks(len(jobs), scheds, slice, tc.sc)

		if want := len(scheds) + 1 + len(jobs); len(tasks) != want {
			t.Fatalf("%s: %d tasks, want %d", tc.label, len(tasks), want)
		}
		kinds := make([]byte, len(tasks))
		for i, task := range tasks {
			kinds[i] = "smc"[task.kind]
		}
		if string(kinds) != tc.want {
			t.Errorf("%s: order by kind %s, want %s", tc.label, kinds, tc.want)
		}
		seen := map[key]bool{}
		for i, task := range tasks {
			if seen[key{task.kind, task.idx}] {
				t.Errorf("%s: task %+v listed twice", tc.label, task)
			}
			seen[key{task.kind, task.idx}] = true
			if i == 0 {
				continue
			}
			prev := tasks[i-1]
			if prev.budget < task.budget {
				t.Errorf("%s: budget rises at position %d: %d after %d", tc.label, i, task.budget, prev.budget)
			}
			if prev.budget == task.budget && (prev.kind > task.kind || prev.kind == task.kind && prev.idx > task.idx) {
				t.Errorf("%s: tie at position %d not in list order: %+v before %+v", tc.label, i, prev, task)
			}
		}
		if again := mixTasks(len(jobs), scheds, slice, tc.sc); !reflect.DeepEqual(tasks, again) {
			t.Errorf("%s: task order differs between two calls", tc.label)
		}
	}
}

// TestEvalMixWorkerInvariance: the whole evaluation — solo rates, sample
// data, weighted speedups — is bit-identical at 1, 2, 3 and 8 workers, for a
// single-threaded mix and for one with a two-thread job, and the Jsb(6,3,3)
// result is the one the committed golden file pins. Under -race this is also
// the check that no two tasks of the flat fan-out share a job or a machine.
func TestEvalMixWorkerInvariance(t *testing.T) {
	data, err := os.ReadFile(expGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden expGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	sc := goldenScale()
	for _, label := range []string{"Jsb(6,3,3)", "Jpb(10,2,2)"} {
		var base *MixEval
		for _, workers := range []int{1, 2, 3, 8} {
			var ev *MixEval
			var err error
			withWorkers(t, workers, func() { ev, err = EvalMix(context.Background(), label, sc) })
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			if base == nil {
				base = ev
				continue
			}
			if !reflect.DeepEqual(ev.Solo, base.Solo) || !reflect.DeepEqual(ev.Samples, base.Samples) || !reflect.DeepEqual(ev.WS, base.WS) {
				t.Errorf("%s: workers=%d diverges from workers=1:\n solo %v vs %v\n ws %v vs %v",
					label, workers, ev.Solo, base.Solo, ev.WS, base.WS)
			}
		}
		for _, row := range golden.Figure1 {
			if row.Mix == label && (base.Worst() != row.Worst || base.Best() != row.Best || base.Avg() != row.Avg) {
				t.Errorf("%s: worst/best/avg %v/%v/%v, golden %v/%v/%v",
					label, base.Worst(), base.Best(), base.Avg(), row.Worst, row.Best, row.Avg)
			}
		}
	}
}

// TestEvalMixErrorIsWorkerInvariant: when several tasks of the flat fan-out
// fail, the error reported is that of the first failing task in the list's
// order — not of whichever failed first in time — so it is the same at 1
// and 8 workers.
func TestEvalMixErrorIsWorkerInvariant(t *testing.T) {
	mix := workload.MustMix("Jsb(6,3,3)")
	scheds, err := EnumerateFor(mix)
	if err != nil {
		t.Fatal(err)
	}
	scheds = append([]schedule.Schedule(nil), scheds[:5]...)
	// Two symbios runs that cannot start, each with its own message.
	scheds[1].Order = []int{0, 0, 1, 2, 3, 4}
	scheds[3].Order = []int{5, 5, 1, 2, 3, 4}

	var errs []string
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() { _, err = EvalMixSchedules(context.Background(), mix, scheds, goldenScale()) })
		if err == nil {
			t.Fatalf("workers=%d: invalid schedules accepted", workers)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Errorf("error depends on the worker count:\n w1 %s\n w8 %s", errs[0], errs[1])
	}
	if want := "[0 0 1 2 3 4]"; !strings.Contains(errs[0], want) {
		t.Errorf("reported %q, want the first failing task's error (schedule %s)", errs[0], want)
	}
}
