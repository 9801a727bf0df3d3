// Package faults is the deterministic fault-injection subsystem for the
// robustness studies. The paper's SOS scheduler assumes clean performance
// counter reads and a fixed jobmix; on real hardware counters are noisy,
// multiplexed and occasionally lost, and Section 6 worries explicitly about
// "coping with a changing job mix". This package corrupts the *scheduler's
// view* of the machine — never the machine itself — so an experiment can ask
// how much corruption each predictor tolerates before SOS does worse than
// round-robin, and whether the adaptive scheduler detects and recovers.
//
// Two fault families are modeled:
//
//   - Counter faults (Injector, implementing core.CounterReader): Gaussian
//     multiplicative noise on every event counter, dropped reads that replay
//     the previous (stale) sample, sticky-zero counters that read zero from
//     the moment they stick, saturation clipping at a configurable ceiling,
//     and transient whole-read failures surfaced as core.ErrCounterRead for
//     the retry path to handle. The cycle count is exempt: it comes from the
//     timebase, not a multiplexed PMU counter.
//
//   - Jobmix churn (ChurnSpec): scripted mid-run job arrivals and departures
//     injected between timeslices, which the experiment layer converts into
//     concrete core.ChurnEvents (instantiating and calibrating the arriving
//     jobs).
//
// Everything is seeded via rng.Hash2 of (Config.Seed, read ordinal, field),
// a pure function of the injector's own read sequence, so a fault pattern is
// bit-identical at any worker count and any interleaving of other work.
package faults

import (
	"fmt"
	"math"
	"strings"

	"symbios/internal/core"
	"symbios/internal/counters"
	"symbios/internal/rng"
)

// Config selects the counter-fault model. The zero value injects nothing
// (Active reports false) and an Injector over it is a pure pass-through.
// The JSON tags are the wire names the sosd service accepts in a request's
// optional "fault" block (chaos mode).
type Config struct {
	// Seed drives every fault decision; two injectors with equal configs
	// produce identical fault patterns over identical read sequences.
	Seed uint64 `json:"seed,omitempty"`

	// NoiseSigma is the standard deviation of the Gaussian multiplicative
	// noise applied to each event counter: observed = true * (1 + σ·g),
	// clamped at zero. σ=0.05 models healthy multiplexed counters; σ=0.4 is
	// a badly oversubscribed PMU.
	NoiseSigma float64 `json:"noise_sigma,omitempty"`

	// DropRate is the probability a read is lost and the previous observed
	// sample is returned instead (stale data; the first read drops to an
	// all-zero sample).
	DropRate float64 `json:"drop_rate,omitempty"`

	// StickyRate is the per-read probability that one event counter (chosen
	// deterministically) sticks at zero for the rest of the run.
	StickyRate float64 `json:"sticky_rate,omitempty"`

	// SaturateAt, when nonzero, clips every event counter at this ceiling,
	// modeling narrow hardware counters that peg at full scale.
	SaturateAt uint64 `json:"saturate_at,omitempty"`

	// FailRate is the probability a read fails outright, surfaced as
	// core.ErrCounterRead; the hardened scheduler retries these with
	// bounded backoff.
	FailRate float64 `json:"fail_rate,omitempty"`
}

// Active reports whether the config injects any fault at all.
func (c Config) Active() bool {
	return c.NoiseSigma > 0 || c.DropRate > 0 || c.StickyRate > 0 ||
		c.SaturateAt > 0 || c.FailRate > 0
}

// String renders the non-zero fault knobs, for table labels.
func (c Config) String() string {
	if !c.Active() {
		return "clean"
	}
	var parts []string
	if c.NoiseSigma > 0 {
		parts = append(parts, fmt.Sprintf("σ=%.2f", c.NoiseSigma))
	}
	if c.DropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop=%.2f", c.DropRate))
	}
	if c.StickyRate > 0 {
		parts = append(parts, fmt.Sprintf("stick=%.2f", c.StickyRate))
	}
	if c.SaturateAt > 0 {
		parts = append(parts, fmt.Sprintf("clip=%d", c.SaturateAt))
	}
	if c.FailRate > 0 {
		parts = append(parts, fmt.Sprintf("fail=%.2f", c.FailRate))
	}
	return strings.Join(parts, " ")
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	// Reads is the total number of Observe calls.
	Reads uint64
	// Drops counts reads replaced by the previous (stale) sample.
	Drops uint64
	// Failures counts reads surfaced as core.ErrCounterRead.
	Failures uint64
	// Stuck is the number of counters currently sticky at zero.
	Stuck int
	// Clipped counts individual counter values clipped at SaturateAt.
	Clipped uint64
}

// Salt labels for the per-read decision streams; each decision draws from an
// independent hash stream so enabling one fault mode never perturbs another.
const (
	saltFail  = 0x0fa1
	saltDrop  = 0x0d20
	saltStick = 0x057c
	saltNoise = 0x0a01 // base; field index added per counter
)

// Injector corrupts counter reads per a Config. It implements
// core.CounterReader; attach it with Machine.SetCounterReader. An Injector
// is stateful (read ordinal, stale sample, stuck set) and must not be shared
// between machines — give every machine its own, which also keeps fault
// patterns independent of worker scheduling.
type Injector struct {
	cfg   Config
	reads uint64
	last  counters.Set
	stuck []bool // indexed like counters.Set.EventFields
	stats Stats
}

// New returns an injector over cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg}
}

// Stats returns the fault counts delivered so far.
func (in *Injector) Stats() Stats { return in.stats }

// draw returns the uniform deviate of stream salt at the current read.
func (in *Injector) draw(ord uint64, salt uint64) float64 {
	return rng.Float01(rng.Hash2(in.cfg.Seed, ord, salt))
}

// gaussian returns a standard normal deviate for (ord, field) by Box-Muller
// over two independent hash streams.
func (in *Injector) gaussian(ord, field uint64) float64 {
	u1 := rng.Float01(rng.Hash2(in.cfg.Seed, ord, saltNoise+2*field))
	u2 := rng.Float01(rng.Hash2(in.cfg.Seed, ord, saltNoise+2*field+1))
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Observe corrupts one interval delta. The returned set's Cycles always
// carries the true cycle count (the timebase is not a PMU counter); event
// counters are subject to failure, drop, sticky-zero, noise and clipping, in
// that order. The observed (post-fault) sample becomes the stale replay
// value for subsequent drops, as a real sampling buffer would hold the last
// value that arrived.
func (in *Injector) Observe(d counters.Set) (counters.Set, error) {
	ord := in.reads
	in.reads++
	in.stats.Reads++
	if !in.cfg.Active() {
		return d, nil
	}

	if in.cfg.FailRate > 0 && in.draw(ord, saltFail) < in.cfg.FailRate {
		in.stats.Failures++
		return counters.Set{}, fmt.Errorf("faults: read %d: %w", ord, core.ErrCounterRead)
	}

	// A sticky event fires even on dropped reads: the counter is broken
	// from this moment, whether or not this particular sample arrives.
	if in.cfg.StickyRate > 0 && in.draw(ord, saltStick) < in.cfg.StickyRate {
		var probe counters.Set
		n := len(probe.EventFields())
		if in.stuck == nil {
			in.stuck = make([]bool, n)
		}
		pick := int(rng.Hash2(in.cfg.Seed, ord, saltStick+1) % uint64(n))
		if !in.stuck[pick] {
			in.stuck[pick] = true
			in.stats.Stuck++
		}
	}

	if in.cfg.DropRate > 0 && in.draw(ord, saltDrop) < in.cfg.DropRate {
		in.stats.Drops++
		out := in.last // zero Set before the first successful read
		out.Cycles = d.Cycles
		return out, nil
	}

	out := d
	fields := out.EventFields()
	for i, p := range fields {
		if in.stuck != nil && in.stuck[i] {
			*p = 0
			continue
		}
		if in.cfg.NoiseSigma > 0 {
			factor := 1 + float64(in.cfg.NoiseSigma*in.gaussian(ord, uint64(i)))
			if factor < 0 {
				factor = 0
			}
			*p = uint64(math.Round(float64(*p) * factor))
		}
		if in.cfg.SaturateAt > 0 && *p > in.cfg.SaturateAt {
			*p = in.cfg.SaturateAt
			in.stats.Clipped++
		}
	}
	in.last = out
	return out, nil
}

// ChurnSpec scripts one jobmix change by benchmark name, to be fired when
// the symbios phase reaches a fraction of its slice budget. The experiment
// layer resolves specs into concrete core.ChurnEvents — instantiating the
// arriving job and calibrating its solo rate — because job construction
// needs the workload registry and a calibration machine, which the scheduler
// core deliberately knows nothing about.
type ChurnSpec struct {
	// AtFraction of the symbios slice budget at which the event fires, in
	// (0, 1).
	AtFraction float64
	// DepartJob is the job ID to remove, or -1 for none.
	DepartJob int
	// ArriveBench is the benchmark name to add, or "" for none.
	ArriveBench string
}

// String renders the spec for event logs.
func (s ChurnSpec) String() string {
	var parts []string
	if s.DepartJob >= 0 {
		parts = append(parts, fmt.Sprintf("-job%d", s.DepartJob))
	}
	if s.ArriveBench != "" {
		parts = append(parts, "+"+s.ArriveBench)
	}
	return fmt.Sprintf("@%.2f %s", s.AtFraction, strings.Join(parts, " "))
}
