package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"symbios/internal/obs"
)

// TestFigure1ObsDeterminism is the no-feedback regression test on the
// batch side: Figure 1 shard outputs must be bit-identical with the obs
// tracer+registry carried in the context versus a plain context, at
// workers 1 and 8. The eval cache is cleared between runs so every run
// recomputes rather than replaying memoized results.
func TestFigure1ObsDeterminism(t *testing.T) {
	sc := QuickScale()
	sc.CalibWarmup, sc.CalibMeasure = 200_000, 100_000
	sc.WarmupCycles, sc.SymbiosCycles = 200_000, 400_000
	labels := []string{"Jsb(4,2,2)", "Jsb(6,3,3)"}

	run := func(workers int, traced bool) ([]Figure1Row, string) {
		var rows []Figure1Row
		var err error
		var buf bytes.Buffer
		withWorkers(t, workers, func() {
			ClearEvalCache()
			ctx := context.Background()
			if traced {
				ctx = obs.WithTracer(ctx, obs.NewTracer(&buf, obs.NewRegistry()))
			}
			rows, err = Figure1(ctx, sc, labels)
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows, buf.String()
	}

	base, _ := run(1, false)
	for _, workers := range []int{1, 8} {
		traced, jsonl := run(workers, true)
		if !reflect.DeepEqual(base, traced) {
			t.Fatalf("workers=%d: rows differ with obs enabled:\n%+v\nvs\n%+v", workers, base, traced)
		}
		// The trace must actually cover the run: one shard span per mix and
		// one SOS phase span per task of each mix's flat fan-out, so a
		// name's total is that phase's CPU time. Jsb(4,2,2) has 4 jobs and 3
		// schedules, Jsb(6,3,3) 6 and 10; every symbios run and each mix's
		// sample chain warms its own machine.
		spans := map[string]int{}
		for _, line := range strings.Split(strings.TrimSpace(jsonl), "\n") {
			var ev obs.SpanEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("workers=%d: bad JSONL line %q: %v", workers, line, err)
			}
			spans[ev.Name]++
		}
		want := map[string]int{"shard": len(labels), "sos/calibrate": 4 + 6, "sos/warmup": 3 + 10 + 2, "sos/sample": 2, "sos/symbios": 3 + 10}
		if !reflect.DeepEqual(spans, want) {
			t.Errorf("workers=%d: span counts %v, want %v", workers, spans, want)
		}
	}
	ClearEvalCache() // leave no quick-scale entries for other tests
}
