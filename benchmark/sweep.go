package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// goldenSeed is the seed whose Table 3 output is committed; for it the
// sweep's simulated statistics must match the golden byte for byte. A
// change meant only to make the simulator faster must leave them identical,
// and this is where the benchmark checks that it did.
const goldenSeed = 1

//go:embed testdata/table3_quick_seed1.json
var goldenTable3 []byte

// sweepWorkers pins sosbench's fan-out to the reference box's core count,
// so parallel.cpu_over_wall reads against a known ceiling.
const sweepWorkers = 2

// sweepArgs is the sosbench command line of the sweep workload.
func sweepArgs(opt options, jsonPath, tracePath string) []string {
	exp := "table3"
	if opt.quick {
		exp = "table2" // no simulation: a smoke test of the plumbing only
	}
	args := []string{"-exp", exp, "-scale", "quick", "-seed", strconv.FormatUint(opt.seed, 10),
		"-workers", strconv.Itoa(sweepWorkers), "-json", jsonPath}
	if tracePath != "" {
		args = append(args, "-trace-out", tracePath)
	}
	return args
}

// sweepOutcome is one finished sosbench run.
type sweepOutcome struct {
	wall    time.Duration
	cpuSec  float64 // child user+sys
	peakRSS float64 // MB
	json    []byte
	spans   map[string]float64 // SOS phase name -> seconds, from -trace-out
}

// execSweep runs sosbench once, to completion, as a child the sandbox
// knows about (so an interrupted benchmark does not leave it running).
func execSweep(sb *sandbox, bins binaries, opt options, traced bool) (*sweepOutcome, error) {
	jsonPath := filepath.Join(sb.dir, "sweep.json")
	tracePath := ""
	if traced {
		tracePath = filepath.Join(sb.dir, "sweep-spans.jsonl")
	}
	t0 := time.Now()
	p, err := sb.spawn("sosbench", bins.sosbench, sweepArgs(opt, jsonPath, tracePath)...)
	if err != nil {
		return nil, err
	}
	<-p.done
	if p.waitErr != nil {
		return nil, fmt.Errorf("sosbench: %w\n%s", p.waitErr, p.tail(10))
	}
	out := &sweepOutcome{wall: time.Since(t0)}
	state := p.cmd.ProcessState
	out.cpuSec = (state.UserTime() + state.SystemTime()).Seconds()
	if ru, ok := state.SysUsage().(*syscall.Rusage); ok {
		out.peakRSS = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	if out.json, err = os.ReadFile(jsonPath); err != nil {
		return nil, err
	}
	if traced {
		if out.spans, err = readPhaseSpans(tracePath); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readPhaseSpans totals sosbench's -trace-out spans by name, in seconds.
func readPhaseSpans(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var s struct {
			Name  string `json:"name"`
			DurNS int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[s.Name] += float64(s.DurNS) / 1e9
	}
	return out, sc.Err()
}

// table3Row is the part of a Table 3 row the structural check reads.
type table3Row struct {
	Schedule string
	IPC      float64
	WS       float64
}

// checkSweep verifies a sweep's simulated statistics. For the golden seed
// they must equal the committed bytes. For any other seed there is no
// reference, so the check is structural: Jsb(6,3,3) has exactly ten
// distinct schedules, each named differently, each with a positive IPC and
// a weighted speedup no greater than the three contexts it runs on.
func checkSweep(opt options, got []byte) error {
	if opt.quick {
		if !json.Valid(got) {
			return fmt.Errorf("sweep output is not JSON")
		}
		return nil
	}
	if opt.seed == goldenSeed {
		if !bytes.Equal(got, goldenTable3) {
			return fmt.Errorf("Table 3 at seed %d differs from the committed golden (testdata/table3_quick_seed1.json):\n%s", goldenSeed, got)
		}
		return nil
	}
	var doc struct {
		Table3 []table3Row `json:"table3"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		return fmt.Errorf("sweep output: %w", err)
	}
	const schedules, contexts = 10, 3
	if len(doc.Table3) != schedules {
		return fmt.Errorf("Table 3 has %d rows, want %d", len(doc.Table3), schedules)
	}
	seen := map[string]bool{}
	for _, r := range doc.Table3 {
		if seen[r.Schedule] || r.Schedule == "" {
			return fmt.Errorf("Table 3 schedule %q missing or repeated", r.Schedule)
		}
		seen[r.Schedule] = true
		if !(r.IPC > 0) || !(r.WS > 0 && r.WS <= contexts) {
			return fmt.Errorf("Table 3 row %s out of range: IPC %v, WS %v", r.Schedule, r.IPC, r.WS)
		}
	}
	return nil
}

// runSweep is the gated sweep run. The operation is one whole sosbench
// Table 3 sweep — fixed work, not a fixed window, so -seconds does not
// shorten it — and with a single sample the median is its wall time.
// set-up is the serving fleet's, timed the same way as in every other
// workload, so setup_s means one thing across the benchmark.
func runSweep(sb *sandbox, bins binaries, opt options) (*runResult, error) {
	r := newServingRun(sb, bins, opt, workloadDef{name: "sweep"})
	setups, err := r.timedSetUps(setUps)
	if err != nil {
		return nil, err
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	out, err := execSweep(sb, bins, opt, false)
	if err != nil {
		return nil, err
	}
	res := sweepResult(opt, out)
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["p25_ms"] = ms(out.wall)
	res.Metrics["cpu_ms_per_op"] = out.cpuSec * 1000
	res.note("set-ups %.3fs; one sweep of %.2f s wall, %.2f s CPU, peak RSS %.0f MB", setups, out.wall.Seconds(), out.cpuSec, out.peakRSS)
	return res, nil
}

// sweepResult starts a sweep run's record: one operation, failed if its
// simulated statistics do not check out.
func sweepResult(opt options, out *sweepOutcome) *runResult {
	res := newResult(opt, "sweep")
	res.Attempted, res.Samples = 1, 1
	if err := checkSweep(opt, out.json); err != nil {
		res.Failed = 1
		res.Failures = append(res.Failures, err.Error())
	}
	return res
}

// traceSweep is the traced sweep run: the same sosbench invocation with
// -trace-out, whose SOS phase spans split the wall time by experiment
// phase, plus the in-process kernel probes.
func traceSweep(sb *sandbox, bins binaries, opt options) (*runResult, error) {
	out, err := execSweep(sb, bins, opt, true)
	if err != nil {
		return nil, err
	}
	res := sweepResult(opt, out)
	m := res.Metrics
	m["client.sent"], m["client.ok"], m["client.failed"] = 1, float64(1-res.Failed), float64(res.Failed)
	m["build_s"] = bins.buildSec
	m["experiments.calibrate_s"] = out.spans["sos/calibrate"]
	m["experiments.warmup_s"] = out.spans["sos/warmup"]
	m["experiments.sample_s"] = out.spans["sos/sample"]
	m["experiments.symbios_s"] = out.spans["sos/symbios"]
	m["parallel.cpu_over_wall"] = safeDiv(out.cpuSec, out.wall.Seconds())
	m["sosbench.peak_rss_mb"] = out.peakRSS
	m["trace.spans"] = float64(len(out.spans))
	if err := kernelProbes(m); err != nil {
		return nil, err
	}
	res.note("sweep wall %.2f s", out.wall.Seconds())
	return res, nil
}
