// Command benchmark is this repository's benchmark: it builds sosd,
// sosfront and sosbench from the checkout it runs in, drives them the way a
// user would — open-loop schedule requests through the real
// front -> sosd -> kernel path, and the paper's Table 3 sweep through
// sosbench — verifies every answer, and reports end-to-end metrics (tracing
// off) or a per-layer budget (tracing on). README.md in this directory
// defines every workload and metric.
//
// Usage (from the checkout root, as BENCHMARK.json's command does):
//
//	bash benchmark/run.sh --workload hit|miss|mixed|sweep --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh --seed N                 # every workload, gated then traced
//	bash benchmark/run.sh --compare a.jsonl b.jsonl
//
// The last stdout line of a single-workload run is one JSON object with the
// keys correct, attempted, failed and metrics. Exit codes: 0 ok, 1 a check
// failed (verification, validity gate, comparison outside bounds), 2 usage
// or environment error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const (
	exitOK     = 0
	exitFailed = 1
	exitUsage  = 2
)

// quickSeconds is the -quick window: a smoke run, never comparable.
const quickSeconds = 3

// options are the parsed flags of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	quick    bool
	out      string
}

// binaries are the freshly built programs under test.
type binaries struct {
	sosd, sosfront, sosbench string
	buildSec                 float64
}

// runResult is one run's record: the line appended to the -out file, and
// (projected onto BENCHMARK.json's metric list) the final stdout line.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   int       `json:"seconds"`
	Trace     int       `json:"trace"`
	Quick     bool      `json:"quick"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Samples   int       `json:"samples"`
	Metrics   metricSet `json:"metrics"`
	Failures  []string  `json:"failures,omitempty"`
	Notes     []string  `json:"notes,omitempty"`
	Env       envInfo   `json:"env"`
}

// envInfo records where and how the run was made, so two result files can
// be told apart before their numbers are compared.
type envInfo struct {
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	SosdFlags  []string `json:"sosd_flags"`
	FrontFlags []string `json:"sosfront_flags"`
	SweepFlags []string `json:"sosbench_flags"`
}

func newResult(opt options, workload string) *runResult {
	return &runResult{
		Workload: workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Quick: opt.quick, Metrics: metricSet{},
	}
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(realMain()) }

func realMain() (code int) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var opt options
	fs.StringVar(&opt.workload, "workload", "all", "hit, miss, mixed, sweep, or all (each workload gated, then traced)")
	fs.Uint64Var(&opt.seed, "seed", 1, "input seed: arrivals, request seeds and the sweep seed all derive from it")
	fs.IntVar(&opt.seconds, "seconds", 0, "measured window in seconds (0 = run_seconds from BENCHMARK.json)")
	fs.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
	fs.BoolVar(&opt.quick, "quick", false, "smoke run: 3 s windows, table2 instead of table3; output is stamped quick and refused by -compare")
	fs.StringVar(&opt.out, "out", "", "append each run's full record to this JSON-lines file (default .bench_build/results.jsonl)")
	compare := fs.Bool("compare", false, "compare two result files given as arguments against BENCHMARK.json's bounds")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return exitUsage
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return exitUsage
		}
		return runCompare(os.Stdout, spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return exitUsage
	}
	if opt.trace != 0 && opt.trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return exitUsage
	}
	switch {
	case opt.quick:
		opt.seconds = quickSeconds
	case opt.seconds == 0:
		opt.seconds = spec.RunSeconds
	}
	if opt.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return exitUsage
	}
	names, err := workloadNames(opt.workload, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	buildDir := filepath.Join(root, ".bench_build")
	if opt.out == "" {
		opt.out = filepath.Join(buildDir, "results.jsonl")
	}

	sb, err := newSandbox(buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	defer sb.cleanup()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "benchmark: panic: %v\n%s", r, debug.Stack())
			code = exitUsage
		}
	}()

	bins, err := buildBinaries(root, buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}

	// One workload with an explicit -trace is the contract form; "all"
	// runs every workload gated and then traced, the form a person uses.
	traces := []int{opt.trace}
	if opt.workload == "all" {
		traces = []int{0, 1}
	}
	code = exitOK
	for _, name := range names {
		for _, tr := range traces {
			o := opt
			o.workload, o.trace = name, tr
			res, err := runOne(sb, bins, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): run invalid: %v\n", name, tr, err)
				return exitFailed
			}
			res.Env = environment(root, bins, o)
			if err := res.Metrics.checkKnown(); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return exitUsage
			}
			if err := report(res, o.out); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return exitUsage
			}
			if !res.Correct {
				code = exitFailed
			}
		}
	}
	return code
}

// workloadNames resolves -workload against BENCHMARK.json's list.
func workloadNames(arg string, spec *benchSpec) ([]string, error) {
	var all []string
	for _, w := range spec.Workloads {
		all = append(all, w.Name)
		if w.Name == arg {
			return []string{arg}, nil
		}
	}
	if arg == "all" {
		return all, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", arg, strings.Join(all, ", "))
}

// runOne dispatches one (workload, trace) run.
func runOne(sb *sandbox, bins binaries, opt options) (*runResult, error) {
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d seconds=%d trace=%d\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	var (
		res *runResult
		err error
	)
	wl, serving := servingWorkloads[opt.workload]
	switch {
	case serving && opt.trace == 0:
		res, err = runServing(sb, bins, opt, wl)
	case serving:
		res, err = traceServing(sb, bins, opt, wl)
	case opt.trace == 0:
		res, err = runSweep(sb, bins, opt)
	default:
		res, err = traceSweep(sb, bins, opt)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// report prints the run for people, appends the full record to the result
// file, and ends with the contract's one-line JSON object.
func report(res *runResult, out string) error {
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	fmt.Printf("== %s  seed %d  %d s  trace %d  (%d samples, %d attempted, %d failed)\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Samples, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("%-30s %16.4f %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	if err := appendJSONL(out, res); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics.project(defs)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendJSONL(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding BENCHMARK.json (run.sh starts there; `go run -C
// benchmark .` starts one level down).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// buildBinaries compiles the three programs under test from root into
// buildDir/bin. The time it takes is build_s, kept apart from setup_s: a
// user builds once and sets up on every start.
func buildBinaries(root, buildDir string) (binaries, error) {
	bin := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return binaries{}, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/sosd", "./cmd/sosfront", "./cmd/sosbench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return binaries{
		sosd:     filepath.Join(bin, "sosd"),
		sosfront: filepath.Join(bin, "sosfront"),
		sosbench: filepath.Join(bin, "sosbench"),
		buildSec: time.Since(t0).Seconds(),
	}, nil
}

// environment describes the machine, the toolchain, the commit and every
// flag the daemons ran with.
func environment(root string, bins binaries, opt options) envInfo {
	env := envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SosdFlags:  []string{"-addr", "127.0.0.1:0", "-checkpoint", "<tmp>", "-rate", admissionRate, "-burst", admissionRate},
		FrontFlags: []string{"-addr", "127.0.0.1:0", "-backends", "<replica0>,<replica1>"},
		SweepFlags: sweepArgs(opt, "<tmp>/out.json", ""),
	}
	// The acceptance checkout is not a git repository; there the commit
	// stays unknown and the result file's own name has to carry it.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root)) // never look above the checkout
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}
