package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"symbios/internal/obs"
	"symbios/internal/workload"
)

// The hardened controller's golden suite: four RunAdaptiveCtx runs at the
// default policy values (clean, transient read failures, a dead PMU that
// forces the fallback, and a churned mix), each pinned as its full
// AdaptiveResult (floats bit for bit) plus the order of the span and event
// names its tracer receives. A result field named Events, a free-form log,
// is left out. Regenerate with:
//
//	go test ./internal/core -run TestGoldenAdaptive -update-golden
const adaptiveGoldenPath = "testdata/golden_adaptive.json"

type adaptiveGolden struct {
	Name   string         `json:"name"`
	Result map[string]any `json:"result"`
	Trace  []string       `json:"trace"`
}

func runAdaptiveGolden(t *testing.T) []adaptiveGolden {
	t.Helper()
	type tc struct {
		name   string
		mix    string
		reader CounterReader
		opt    func(t *testing.T, mix workload.Mix) Options
	}
	base := func(symbios int, warmup uint64) func(*testing.T, workload.Mix) Options {
		return func(*testing.T, workload.Mix) Options {
			return Options{Samples: 6, Predictor: PredScore, SymbiosSlices: symbios, WarmupCycles: warmup, Seed: 9}
		}
	}
	churn := func(t *testing.T, mix workload.Mix) Options {
		spec := workload.MustLookup("IS")
		spec.Threads, spec.SyncEvery = 1, 0
		probe := workload.MustNewJob(spec, 100, 77)
		arrSolo, err := SoloRates(context.Background(), archFor(mix), []*workload.Job{probe}, []uint64{77}, 200_000, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		return Options{
			Samples: 5, Predictor: PredScore, SymbiosSlices: 60,
			WarmupCycles: 100_000, Seed: 11,
			Churn: []ChurnEvent{{
				AtSlice:    20,
				Depart:     []int{0},
				Arrive:     []*workload.Job{workload.MustNewJob(spec, 100, 77)},
				ArriveSolo: [][]float64{arrSolo},
			}},
		}
	}
	var out []adaptiveGolden
	for _, c := range []tc{
		{"clean-jsb422", "Jsb(4,2,2)", nil, base(64, 200_000)},
		{"flaky7-jsb422", "Jsb(4,2,2)", &flakyReader{n: 7}, base(64, 200_000)},
		{"zero-fallback-jsb422", "Jsb(4,2,2)", zeroReader{}, base(32, 0)},
		{"churn-jsb522", "Jsb(5,2,2)", nil, churn},
	} {
		m, mix, solo := adaptiveSetup(t, c.mix, 3)
		if c.reader != nil {
			m.SetCounterReader(c.reader)
		}
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf, nil)
		res, err := RunAdaptiveCtx(obs.WithTracer(context.Background(), tr), m, mix.SMTLevel, mix.Swap, solo, c.opt(t, mix))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		g := adaptiveGolden{Name: c.name}
		if err := json.Unmarshal(raw, &g.Result); err != nil {
			t.Fatal(err)
		}
		delete(g.Result, "Events")
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			var ev obs.SpanEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatal(err)
			}
			g.Trace = append(g.Trace, ev.Name)
		}
		out = append(out, g)
	}
	return out
}

func TestGoldenAdaptive(t *testing.T) {
	got := runAdaptiveGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(adaptiveGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", adaptiveGoldenPath)
		return
	}
	data, err := os.ReadFile(adaptiveGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden on trusted code): %v", err)
	}
	var want []adaptiveGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Result, want[i].Result) {
			t.Errorf("%s: result diverged:\n got %v\nwant %v", want[i].Name, got[i].Result, want[i].Result)
		}
		if !reflect.DeepEqual(got[i].Trace, want[i].Trace) {
			t.Errorf("%s: trace diverged:\n got %v\nwant %v", want[i].Name, got[i].Trace, want[i].Trace)
		}
	}
}
