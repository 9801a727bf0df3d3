package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric and its unit. The tables below are the
// program's side of the contract in BENCHMARK.json; a unit test keeps the
// two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees, reported by every workload
// with tracing off. An "operation" is one schedule request (serving
// workloads) or one sosbench sweep (sweep).
var endToEnd = []metricDef{
	{"setup_s", "s"},        // median of the run's fleet set-ups: first spawn -> ready + hot set preloaded
	{"p25_ms", "ms"},        // lower-quartile operation latency, from the due time (see gatedQuantile)
	{"cpu_ms_per_op", "ms"}, // user+sys CPU of the system's processes per answered operation
}

// perLayer is the traced run's output: one or more measurements per module
// of the repo, reported by every workload (0 where the workload does not
// reach the layer).
var perLayer = []metricDef{
	// client: the load generator itself — the validity of everything else.
	{"client.sent", "count"},
	{"client.ok", "count"},
	{"client.failed", "count"},
	{"client.degraded", "count"},
	{"client.late_p90_ms", "ms"},
	{"client.hit_p50_ms", "ms"},
	{"client.miss_p50_ms", "ms"},
	{"client.hit_slo_pct", "%"},
	{"client.miss_slo_pct", "%"},
	{"client.p90_ms", "ms"},
	{"client.p99_ms", "ms"},
	{"client.tail_pct", "%"},
	{"client.tail_ms", "ms"},
	{"client.sat_rps", "1/s"},
	{"build_s", "s"},
	// sosfront: the front binary around fleet.Front.
	{"sosfront.cpu_us_per_req", "us"},
	{"sosfront.hop_us", "us"},
	{"sosfront.rss_mb", "MB"},
	// fleet: the dispatcher (singleflight, ring, failover/hedge loop, audit).
	{"fleet.dispatch_self_us", "us"},
	{"fleet.attempts_per_req", "ratio"},
	{"fleet.hedges", "count"},
	{"fleet.hedge_wins", "count"},
	{"fleet.audits", "count"},
	{"fleet.coalesced", "count"},
	{"fleet.failovers", "count"},
	{"fleet.integrity_failures", "count"},
	{"fleet.divergences", "count"},
	{"fleet.route_ns", "ns"},
	// wire: loopback HTTP between front and replica.
	{"wire.attempt_us", "us"},
	{"wire.self_us", "us"},
	{"wire.direct_self_us", "us"},
	{"wire.resp_bytes", "B"},
	// sosd: the replica's request pipeline, from its own stage histograms.
	{"sosd.cpu_us_per_req", "us"},
	{"sosd.http_us", "us"},
	{"sosd.stage_limiter_us", "us"},
	{"sosd.stage_decode_us", "us"},
	{"sosd.stage_cache_us", "us"},
	{"sosd.stage_breaker_us", "us"},
	{"sosd.stage_queue_wait_us", "us"},
	{"sosd.stage_retry_us", "us"},
	{"sosd.unattributed_us", "us"},
	{"sosd.load_http_us", "us"},
	{"sosd.load_queue_wait_us", "us"},
	{"sosd.load_unattributed_us", "us"},
	{"sosd.cache_hit_ratio", "ratio"},
	{"sosd.rss_mb", "MB"},
	{"sosd.batch16_item_ms", "ms"},
	// checkpoint: the response cache's backing file.
	{"checkpoint.file_kb", "KB"},
	{"checkpoint.shards", "count"},
	// integrity: the digest envelope.
	{"integrity.digest_ns_per_kb", "ns"},
	{"integrity.check_us", "us"},
	// core / schedule / workload: the evaluator around the kernel.
	{"core.machine_setup_us", "us"},
	{"schedule.sample_us", "us"},
	{"core.rank_us", "us"},
	// cpu: the cycle-level kernel.
	{"cpu.ns_per_sim_cycle.smt2", "ns"},
	{"cpu.ns_per_sim_cycle.smt3", "ns"},
	{"cpu.ns_per_sim_cycle.smt4", "ns"},
	{"cpu.serve_ns_per_sim_cycle", "ns"},
	{"cpu.sim_cycles_per_req", "count"},
	// experiments / parallel: the paper path under sosbench.
	{"experiments.calibrate_s", "s"},
	{"experiments.warmup_s", "s"},
	{"experiments.sample_s", "s"},
	{"experiments.symbios_s", "s"},
	{"parallel.cpu_over_wall", "ratio"},
	{"sosbench.peak_rss_mb", "MB"},
	// trace: the traced run's own bookkeeping.
	{"trace.client_front_us", "us"},
	{"trace.client_inproc_us", "us"},
	{"trace.client_direct_us", "us"},
	{"trace.sum_pct", "%"},
	{"trace.wire_check_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// metricSet holds a run's measured values by name.
type metricSet map[string]float64

// wireMetric is one metric in the result line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project returns defs' metrics from m in wire form. A metric the run did
// not set reads 0: the workload does not reach that layer.
func (m metricSet) project(defs []metricDef) map[string]wireMetric {
	out := make(map[string]wireMetric, len(defs))
	for _, d := range defs {
		out[d.name] = wireMetric{Value: m[d.name], Unit: d.unit}
	}
	return out
}

// checkKnown rejects a value recorded under a name neither table declares:
// a typo would otherwise vanish silently from the output.
func (m metricSet) checkKnown() error {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for _, d := range perLayer {
		known[d.name] = true
	}
	var unknown []string
	for name := range m {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("metrics recorded under undeclared names: %v", unknown)
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}
