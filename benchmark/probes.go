package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"symbios/internal/arch"
	"symbios/internal/core"
	"symbios/internal/experiments"
	"symbios/internal/fleet"
	"symbios/internal/integrity"
	"symbios/internal/rng"
	"symbios/internal/schedule"
	"symbios/internal/workload"
)

// probeSeed fixes the inputs of the in-process probes: they time a layer
// on the same work on every run, whatever the workload seed.
const probeSeed = 7

// Simulated cycles of the kernel probe: an unrecorded warm-up matching
// serve scale's, then the timed stretch.
const (
	probeWarmCycles    = 200_000
	probeMeasureCycles = 1_000_000
)

// probeMixes are the jobmixes the kernel probe times: one per SMT width the
// service schedules for (2, 3 and 4).
var probeMixes = []string{"Jsb(4,2,2)", "Jsb(6,3,3)", "Jsb(8,4,4)"}

// timeLoop calls fn until at least budget has elapsed and returns the mean
// time per call.
func timeLoop(budget time.Duration, fn func()) time.Duration {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		fn()
		n++
	}
	return time.Since(t0) / time.Duration(n)
}

// kernelProbes times the layers below the serving stack by calling their
// public entry points directly, the way sosd's evaluator does for one rank
// request at serve scale: build the jobs and the machine, draw the sample
// schedules, run them, rank them.
func kernelProbes(m metricSet) error {
	ctx := context.Background()
	scale := experiments.ServeScale()
	var setup, sample, rank []float64
	for _, label := range probeMixes {
		mix, err := workload.MixByLabel(label)
		if err != nil {
			return err
		}
		slice := scale.SliceFor(mix)
		var mach *core.Machine
		var buildErr error
		setup = append(setup, us(timeLoop(20*time.Millisecond, func() {
			jobs, err := mix.Build(probeSeed)
			if err != nil {
				buildErr = err
				return
			}
			mach, buildErr = core.NewMachine(arch.Default21264(mix.SMTLevel), jobs, slice)
		})))
		if buildErr != nil {
			return buildErr
		}
		var scheds []schedule.Schedule
		sample = append(sample, us(timeLoop(5*time.Millisecond, func() {
			scheds = schedule.Sample(rng.New(probeSeed), mix.Tasks(), mix.SMTLevel, mix.Swap, rankSamples)
		})))

		// Host time per simulated cycle: rotate the first sampled
		// schedule, as the request path's warm-up does, then time whole
		// rotations worth probeMeasureCycles.
		rot := scheds[0].CycleSlices()
		rounds := func(cycles uint64) int { return rot * (int(cycles/(uint64(rot)*slice)) + 1) }
		if _, err := mach.RunScheduleCtx(ctx, scheds[0], rounds(probeWarmCycles)); err != nil {
			return err
		}
		slices := rounds(probeMeasureCycles)
		t0 := time.Now()
		run, err := mach.RunScheduleCtx(ctx, scheds[0], slices)
		if err != nil {
			return err
		}
		perCycle := float64(time.Since(t0).Nanoseconds()) / float64(uint64(slices)*slice)
		m[fmt.Sprintf("cpu.ns_per_sim_cycle.smt%d", mix.SMTLevel)] = perCycle

		samples := make([]core.Sample, len(scheds))
		for i, s := range scheds {
			samples[i] = core.NewSample(s, run)
		}
		rank = append(rank, us(timeLoop(5*time.Millisecond, func() {
			core.Rank(samples, core.PredScore)
		})))
	}
	m["core.machine_setup_us"] = mean(setup)
	m["schedule.sample_us"] = mean(sample)
	m["core.rank_us"] = mean(rank)

	// Digest cost per KB, over a body large enough that per-call overhead
	// vanishes; the per-answer cost on real bodies is integrity.check_us.
	buf := bytes.Repeat([]byte("symbios "), 8<<10) // 64 KB
	per := timeLoop(20*time.Millisecond, func() { integrity.Digest(buf) })
	m["integrity.digest_ns_per_kb"] = float64(per.Nanoseconds()) / float64(len(buf)/1024)

	// Routing: what the front pays per request to pick replicas.
	ring, err := fleet.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, 64)
	if err != nil {
		return err
	}
	hot := hotSet()
	i := 0
	per = timeLoop(20*time.Millisecond, func() {
		ring.Lookup(fleet.ShardKey(hot[i%len(hot)].body), 2)
		i++
	})
	m["fleet.route_ns"] = float64(per.Nanoseconds())
	return nil
}

// batchProbeItems is the envelope size of the batch-endpoint probe.
const batchProbeItems = 16

// batchProbe POSTs one envelope of batchProbeItems distinct uncached rank
// requests straight to a replica's /v1/schedule/batch and returns the wall
// time per item in ms. The front's batcher is off by default and cannot
// fill its window from two connections, so the batch path is not a
// workload; this probe is what keeps its per-item cost on record next to
// the singleton's (the miss workload's latency).
func batchProbe(c *http.Client, replica string, gen *generator) (float64, error) {
	type item struct {
		Mix     string `json:"mix"`
		Seed    uint64 `json:"seed"`
		Samples int    `json:"samples"`
	}
	var env struct {
		Requests []item `json:"requests"`
	}
	reqs := make([]*request, batchProbeItems)
	for i := range reqs {
		reqs[i] = gen.next(classMiss)
		env.Requests = append(env.Requests, item{reqs[i].mix, reqs[i].seed, rankSamples})
	}
	body, err := json.Marshal(env)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	rp := postPath(c, replica+"/v1/schedule/batch", body)
	wall := time.Since(t0)
	if rp.err != nil || rp.status != http.StatusOK {
		return 0, fmt.Errorf("batch probe: status %d, %v: %s", rp.status, rp.err, bytes.TrimSpace(rp.body))
	}
	if err := integrity.Check(rp.digest, rp.body); err != nil {
		return 0, fmt.Errorf("batch probe envelope: %w", err)
	}
	var answer struct {
		Items []struct {
			Status int             `json:"status"`
			Cache  string          `json:"cache"`
			Digest string          `json:"digest"`
			Body   json.RawMessage `json:"body"`
		} `json:"items"`
	}
	if err := json.Unmarshal(rp.body, &answer); err != nil {
		return 0, fmt.Errorf("batch probe envelope: %w", err)
	}
	if len(answer.Items) != len(reqs) {
		return 0, fmt.Errorf("batch probe: %d items answered, want %d", len(answer.Items), len(reqs))
	}
	// Each item is held to the singleton contract: body plus newline is
	// what /v1/schedule would have sent, under the singleton's digest.
	for i, it := range answer.Items {
		item := reply{status: it.Status, cache: it.Cache, digest: it.Digest, body: append([]byte(it.Body), '\n')}
		if err := checkReply(reqs[i], &item, classMiss, nil); err != nil {
			return 0, fmt.Errorf("batch probe item %d: %w", i, err)
		}
	}
	return ms(wall) / float64(len(reqs)), nil
}
