package experiments

import (
	"context"
	"reflect"
	"testing"

	"symbios/internal/parallel"
)

// TestOpenLoadDeterminismAcrossWorkers runs a trimmed overload sweep at
// workers 1 and 8 and requires identical rows: the open-system harness must
// stay byte-deterministic under the fan-out.
func TestOpenLoadDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("open-system sweep is heavy")
	}
	qs := QuickQueueScale()
	qs.Horizon = 3_000_000
	factors := []float64{1.3}

	run := func(workers int) []OpenLoadRow {
		t.Helper()
		prev := parallel.SetDefaultWorkers(workers)
		defer parallel.SetDefaultWorkers(prev)
		rows, err := OpenLoad(context.Background(), qs, factors)
		if err != nil {
			t.Fatalf("OpenLoad(context.Background(), workers=%d): %v", workers, err)
		}
		return rows
	}
	one := run(1)
	eight := run(8)
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("open-load sweep differs across workers:\n1: %+v\n8: %+v", one, eight)
	}

	if len(one) != 3*2*len(factors) {
		t.Fatalf("row count = %d, want %d", len(one), 3*2*len(factors))
	}
	seen := map[string]bool{}
	for _, r := range one {
		seen[r.Dist+"/"+r.Scheduler] = true
		if r.Completed <= 0 {
			t.Errorf("%s %s at %.2fx completed nothing", r.Dist, r.Scheduler, r.Factor)
		}
		if r.P50 > r.P99 || r.P99 > r.P999 {
			t.Errorf("%s %s at %.2fx: non-monotone percentiles p50=%.0f p99=%.0f p999=%.0f",
				r.Dist, r.Scheduler, r.Factor, r.P50, r.P99, r.P999)
		}
		if r.Scheduler != "backlog-sos" && r.ShrunkPhases != 0 {
			t.Errorf("%s %s reports %d shrunk phases; only backlog-sos shrinks",
				r.Dist, r.Scheduler, r.ShrunkPhases)
		}
	}
	for _, want := range []string{"poisson/naive", "poisson/sos", "poisson/backlog-sos",
		"pareto/naive", "pareto/sos", "pareto/backlog-sos"} {
		if !seen[want] {
			t.Errorf("missing sweep cell %s", want)
		}
	}
}
