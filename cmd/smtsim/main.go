// Command smtsim runs one coschedule on the simulated SMT processor and
// dumps the performance counters — the raw substrate underneath SOS.
//
// Usage:
//
//	smtsim -jobs FP,MG,WAVE [-cycles 2000000] [-warmup 1000000] [-seed 42]
//
// Each named benchmark occupies one hardware context for the whole run.
// The report shows aggregate and per-thread IPC, the conflict percentage on
// each shared resource, cache hit rates and branch predictor behaviour.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"symbios/internal/arch"
	"symbios/internal/counters"
	"symbios/internal/cpu"
	"symbios/internal/rng"
	"symbios/internal/trace"
	"symbios/internal/workload"
)

func main() {
	var (
		jobList = flag.String("jobs", "FP,MG", "comma-separated benchmarks to coschedule (one per context)")
		cycles  = flag.Uint64("cycles", 2_000_000, "measured cycles")
		warmup  = flag.Uint64("warmup", 1_000_000, "unmeasured warmup cycles")
		seed    = flag.Uint64("seed", 42, "stream seed")
		dump    = flag.Int("dump", 0, "instead of simulating, print the first N decoded instructions of the first benchmark")
	)
	flag.Parse()

	if *dump > 0 {
		if err := dumpStream(strings.Split(*jobList, ",")[0], *seed, *dump); err != nil {
			fatal(err)
		}
		return
	}

	names := strings.Split(*jobList, ",")
	cfg := arch.Default21264(len(names))
	c, err := cpu.New(cfg)
	if err != nil {
		fatal(err)
	}

	for i, name := range names {
		spec, err := workload.Lookup(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		spec.Threads, spec.SyncEvery = 1, 0 // one context per named entry
		job, err := workload.NewJob(spec, i, rng.Hash2(*seed, uint64(i), 1))
		if err != nil {
			fatal(err)
		}
		c.Attach(i, job.Source(0), 0, nil, 0)
	}

	c.Run(*warmup)
	before := c.Snapshot()
	perThread := make([]uint64, len(names))
	for i := range perThread {
		perThread[i] = c.ThreadCommitted(i)
	}
	c.Run(*cycles)
	d := c.Snapshot().Sub(before)

	fmt.Printf("coschedule: %s  (%d cycles after %d warmup)\n", *jobList, *cycles, *warmup)
	fmt.Printf("aggregate IPC %.3f  (%d instructions)\n", d.IPC(), d.Committed)
	for i, name := range names {
		fmt.Printf("  %-8s IPC %.3f\n", name, float64(c.ThreadCommitted(i)-perThread[i])/float64(*cycles))
	}
	fmt.Println("conflict cycles (% of cycles with a conflict on each shared resource):")
	for r := counters.Resource(0); r < counters.NumResources; r++ {
		fmt.Printf("  %-11s %6.2f%%\n", r, d.ConflictPct(r))
	}
	fmt.Printf("L1D hit %.2f%%  L1I hit %.2f%%  L2 hit %.2f%%  TLB hit %.2f%%\n",
		100*d.L1DHitRate(),
		pct(d.L1IHits, d.L1IMisses),
		pct(d.L2Hits, d.L2Misses),
		pct(d.TLBHits, d.TLBMisses))
	fmt.Printf("branches: %.2f%% of instructions, %.2f%% mispredicted\n",
		100*float64(d.BranchCommitted)/float64(d.Committed), 100*d.MispredictRate())
	fmt.Printf("mix: %.1f%% fp, %.1f%% int, %.1f%% load, %.1f%% store\n",
		d.FPPct(), d.IntPct(),
		100*float64(d.LoadCommitted)/float64(d.Committed),
		100*float64(d.StoreCommitted)/float64(d.Committed))
}

func pct(h, m uint64) float64 {
	if h+m == 0 {
		return 100
	}
	return 100 * float64(h) / float64(h+m)
}

// dumpStream decodes and prints the first n instructions of a benchmark's
// synthetic stream — a debugging window into the trace generator.
func dumpStream(name string, seed uint64, n int) error {
	spec, err := workload.Lookup(strings.TrimSpace(name))
	if err != nil {
		return err
	}
	spec.Threads, spec.SyncEvery = 1, 0
	job, err := workload.NewJob(spec, 0, seed)
	if err != nil {
		return err
	}
	src := job.Source(0)
	fmt.Printf("first %d instructions of %s (seed %d):"+"\n", n, spec.Name, seed)
	fmt.Printf("%6s %-7s %14s %14s %5s %5s %s"+"\n", "seq", "op", "pc", "addr", "dep1", "dep2", "")
	ins := make([]trace.Inst, n)
	src.Fill(0, ins)
	for i, in := range ins {
		addr := ""
		if in.Op.IsMem() {
			addr = fmt.Sprintf("%#x", in.Addr)
		}
		taken := ""
		if in.Op.String() == "BRANCH" {
			taken = fmt.Sprintf("taken=%v", in.Taken)
		}
		fmt.Printf("%6d %-7s %#14x %14s %5d %5d %s"+"\n", i, in.Op, in.PC, addr, in.Dep1, in.Dep2, taken)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smtsim:", err)
	os.Exit(1)
}
