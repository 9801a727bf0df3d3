package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"symbios/internal/counters"
	"symbios/internal/obs"
	"symbios/internal/schedule"
)

// TestSimMetricsAggregates: the registry counters attached to a machine
// must reproduce exactly what the run itself reports — same cycles, same
// committed instructions, one slice tally per timeslice — and a second
// machine sharing the handles must aggregate on top.
func TestSimMetricsAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	sm := NewSimMetrics(reg)

	m, mix := mustMachine(t, "Jsb(4,2,2)", 1, 50_000)
	m.SetSimMetrics(sm)
	s, err := schedule.New([]int{0, 1, 2, 3}, mix.SMTLevel, mix.Swap)
	if err != nil {
		t.Fatal(err)
	}
	slices := 2 * s.CycleSlices()
	run, err := m.RunScheduleCtx(context.Background(), s, slices)
	if err != nil {
		t.Fatal(err)
	}

	if got := sm.Slices.Value(); got != uint64(slices) {
		t.Errorf("sim_slices_total = %d, want %d", got, slices)
	}
	if got := sm.Cycles.Value(); got != run.Cycles {
		t.Errorf("sim_cycles_total = %d, want %d", got, run.Cycles)
	}
	var committed uint64
	for _, c := range run.Committed {
		committed += c
	}
	if got := sm.Committed.Value(); got != committed {
		t.Errorf("sim_committed_total = %d, want %d", got, committed)
	}
	for r := counters.Resource(0); r < counters.NumResources; r++ {
		if got := sm.Conflicts[r].Value(); got != run.Counters.ConflictCycles[r] {
			t.Errorf("conflict counter %s = %d, want %d", r, got, run.Counters.ConflictCycles[r])
		}
	}

	// Exposition must carry a series per resource.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for r := counters.Resource(0); r < counters.NumResources; r++ {
		want := `sim_conflict_cycles_total{resource="` + r.String() + `"}`
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestSimMetricsReadOnly: a run with metrics attached must be
// bit-identical to one without — observability cannot feed back.
func TestSimMetricsReadOnly(t *testing.T) {
	run := func(sm *SimMetrics) RunResult {
		m, mix := mustMachine(t, "Jsb(4,2,2)", 7, 50_000)
		m.SetSimMetrics(sm)
		s, err := schedule.New([]int{0, 1, 2, 3}, mix.SMTLevel, mix.Swap)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunScheduleCtx(context.Background(), s, 2*s.CycleSlices())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	metered := run(NewSimMetrics(obs.NewRegistry()))
	if !reflect.DeepEqual(plain, metered) {
		t.Fatalf("run differs with metrics attached:\n%+v\nvs\n%+v", plain, metered)
	}
}

// TestSimMetricsNoAllocs is the registry half of the hot-loop guard: the
// per-timeslice record path must be pure atomic adds. (The cpu cycle
// loop itself is untouched — BenchmarkCoreCycles covers that side.)
func TestSimMetricsNoAllocs(t *testing.T) {
	sm := NewSimMetrics(obs.NewRegistry())
	var d counters.Set
	d.Cycles, d.Committed = 5000, 9000
	d.ConflictCycles[counters.IQ] = 17
	if allocs := testing.AllocsPerRun(1000, func() { sm.recordSlice(d) }); allocs != 0 {
		t.Fatalf("recordSlice: %v allocs/op, want 0", allocs)
	}
	var nilSM *SimMetrics
	if allocs := testing.AllocsPerRun(1000, func() { nilSM.recordSlice(d) }); allocs != 0 {
		t.Fatalf("nil recordSlice: %v allocs/op, want 0", allocs)
	}
}

// TestAdaptiveTracerSpans: RunAdaptiveCtx with a tracer in the context
// must emit the SOS phase spans, and the traced run's result must equal
// an untraced one.
func TestAdaptiveTracerSpans(t *testing.T) {
	opts := Options{
		Samples:       3,
		Predictor:     PredScore,
		SymbiosSlices: 8,
		Seed:          11,
	}
	run := func(ctx context.Context) AdaptiveResult {
		m, mix := mustMachine(t, "Jsb(4,2,2)", 3, 20_000)
		res, err := RunAdaptiveCtx(ctx, m, mix.SMTLevel, mix.Swap, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, nil)
	traced := run(obs.WithTracer(context.Background(), tr))
	plain := run(context.Background())
	if !reflect.DeepEqual(traced, plain) {
		t.Fatalf("adaptive result differs with tracer:\n%+v\nvs\n%+v", traced, plain)
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	out := buf.String()
	for _, span := range []string{`"name":"sos/sample"`, `"name":"sos/optimize"`, `"name":"sos/symbios"`} {
		if !strings.Contains(out, span) {
			t.Errorf("trace JSONL missing %s:\n%s", span, out)
		}
	}
}
