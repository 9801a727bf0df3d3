// Package chaosnet is a deterministic network fault layer for the fleet
// tier. It injects the failures a real wire produces — added latency,
// connection resets, truncated responses, bit-flipped body bytes,
// slow-loris stalls, and timed blackhole partition windows — through a TCP
// proxy (Proxy) the partition soak puts between a front and its sosd
// backends.
//
// Every fault decision is a pure function of (seed, stream, index) via
// rng.Hash2, exactly like the simulator's instruction streams: run the same
// topology at the same seed and the fault schedule replays byte-identically,
// regardless of wall-clock jitter or how many workers consume it. A chaos
// soak failure is therefore a reproducible artifact, not a weather report.
// The one deliberately time-based fault is the partition window — a
// partition is a property of *when*, not of which request — and its
// schedule (offset, width, period) is still fully determined by the
// configuration.
package chaosnet

import (
	"fmt"
	"strings"
	"time"

	"symbios/internal/rng"
)

// Per-fault hash salts: each fault class draws from its own Hash2 stream so
// enabling one fault never shifts another's schedule.
const (
	saltLatency  = 0xc4a1
	saltLatAmt   = 0xc4a2
	saltReset    = 0xc4a3
	saltCorrupt  = 0xc4a4
	saltCorrAt   = 0xc4a5
	saltCorrBit  = 0xc4a6
	saltTruncate = 0xc4a7
	saltTruncAt  = 0xc4a8
	saltStall    = 0xc4a9
	saltStallAt  = 0xc4aa
)

// Config selects the fault mix. The zero value injects nothing (a
// transparent wire). All probabilities are per accepted connection.
type Config struct {
	// Seed derives every fault stream. Two layers with the same Seed and
	// knobs produce the same schedule.
	Seed uint64

	// LatencyP injects LatencyMin..LatencyMax of extra delay before the
	// response's first byte.
	LatencyP   float64
	LatencyMin time.Duration
	LatencyMax time.Duration

	// ResetP aborts the exchange with a connection reset before any
	// response byte is delivered.
	ResetP float64

	// CorruptP flips one bit of the response stream, at a deterministic
	// offset drawn in [0, CorruptWindow) (<=0 selects 1024). An offset past
	// the end of the stream fizzles — the flip simply never lands.
	CorruptP      float64
	CorruptWindow uint64

	// TruncateP ends the response stream early, after a deterministic
	// offset drawn in [0, TruncateWindow) bytes (<=0 selects 1024): the
	// proxy closes the connection there.
	TruncateP      float64
	TruncateWindow uint64

	// StallP pauses the response stream for StallFor (<=0 selects 2s) after
	// a deterministic offset drawn in [0, StallWindow) bytes (<=0 selects
	// 256) — a slow-loris writer, which a consumer with a read deadline
	// escapes.
	StallP      float64
	StallFor    time.Duration
	StallWindow uint64

	// PartitionEvery > 0 opens a blackhole window of PartitionFor every
	// PartitionEvery of elapsed time, the first starting at PartitionStart.
	// While a window is open nothing flows in either direction: new
	// exchanges and established streams both hang until the window closes
	// (or the caller's context gives up), like a real L3 partition.
	PartitionEvery time.Duration
	PartitionFor   time.Duration
	PartitionStart time.Duration
}

// Fault is one exchange's fault plan, a pure function of
// (Config.Seed, stream, index). Multiple faults can be armed at once;
// consumers apply them in stream order: latency, reset, then per-byte
// corrupt/truncate/stall as the response flows.
type Fault struct {
	// Latency is extra delay before the first response byte (0 = none).
	Latency time.Duration
	// Reset aborts the exchange with a transport error.
	Reset bool
	// Corrupt flips CorruptBit of the byte at stream offset CorruptAt.
	Corrupt    bool
	CorruptAt  uint64
	CorruptBit uint8
	// Truncate ends the stream after TruncateAt bytes.
	Truncate   bool
	TruncateAt uint64
	// Stall pauses the stream for the configured StallFor after StallAt
	// bytes.
	Stall   bool
	StallAt uint64
}

// Active reports whether the plan perturbs the exchange at all.
func (f Fault) Active() bool {
	return f.Latency > 0 || f.Reset || f.Corrupt || f.Truncate || f.Stall
}

// String renders the plan compactly for logs and replay comparison.
func (f Fault) String() string {
	if !f.Active() {
		return "clean"
	}
	var parts []string
	if f.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%s", f.Latency))
	}
	if f.Reset {
		parts = append(parts, "reset")
	}
	if f.Corrupt {
		parts = append(parts, fmt.Sprintf("corrupt@%d bit%d", f.CorruptAt, f.CorruptBit))
	}
	if f.Truncate {
		parts = append(parts, fmt.Sprintf("truncate@%d", f.TruncateAt))
	}
	if f.Stall {
		parts = append(parts, fmt.Sprintf("stall@%d", f.StallAt))
	}
	return strings.Join(parts, ",")
}

// draw returns the [0,1) deviate for one fault class of one exchange.
func (c Config) draw(stream, idx, salt uint64) float64 {
	return rng.Float01(rng.Hash2(rng.Hash(c.Seed, salt), stream, idx))
}

// drawN returns a deterministic value in [0,n) for one fault class.
func (c Config) drawN(stream, idx, salt, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return rng.Hash2(rng.Hash(c.Seed, salt), stream, idx) % n
}

// Plan computes the fault plan for exchange idx of stream. Streams separate
// independently faulted flows (each Proxy uses its own label), so adding a
// backend never reshuffles another backend's schedule.
func (c Config) Plan(stream, idx uint64) Fault {
	var f Fault
	if c.LatencyP > 0 && c.draw(stream, idx, saltLatency) < c.LatencyP {
		lo, hi := c.LatencyMin, c.LatencyMax
		if lo < 0 {
			lo = 0
		}
		if hi < lo {
			hi = lo
		}
		span := uint64(hi - lo)
		f.Latency = lo
		if span > 0 {
			f.Latency += time.Duration(c.drawN(stream, idx, saltLatAmt, span))
		}
		if f.Latency <= 0 {
			f.Latency = time.Millisecond
		}
	}
	if c.ResetP > 0 && c.draw(stream, idx, saltReset) < c.ResetP {
		f.Reset = true
	}
	if c.CorruptP > 0 && c.draw(stream, idx, saltCorrupt) < c.CorruptP {
		w := c.CorruptWindow
		if w == 0 {
			w = 1024
		}
		f.Corrupt = true
		f.CorruptAt = c.drawN(stream, idx, saltCorrAt, w)
		f.CorruptBit = uint8(c.drawN(stream, idx, saltCorrBit, 8))
	}
	if c.TruncateP > 0 && c.draw(stream, idx, saltTruncate) < c.TruncateP {
		w := c.TruncateWindow
		if w == 0 {
			w = 1024
		}
		f.Truncate = true
		f.TruncateAt = c.drawN(stream, idx, saltTruncAt, w)
	}
	if c.StallP > 0 && c.draw(stream, idx, saltStall) < c.StallP {
		w := c.StallWindow
		if w == 0 {
			w = 256
		}
		f.Stall = true
		f.StallAt = c.drawN(stream, idx, saltStallAt, w)
	}
	return f
}

// stallFor resolves the configured stall duration.
func (c Config) stallFor() time.Duration {
	if c.StallFor <= 0 {
		return 2 * time.Second
	}
	return c.StallFor
}

// Partitioned reports whether the blackhole window is open at the given
// elapsed time since the layer started, and if so how long until it closes.
func (c Config) Partitioned(elapsed time.Duration) (bool, time.Duration) {
	if c.PartitionEvery <= 0 || c.PartitionFor <= 0 {
		return false, 0
	}
	since := elapsed - c.PartitionStart
	if since < 0 {
		return false, 0
	}
	phase := since % c.PartitionEvery
	if phase < c.PartitionFor {
		return true, c.PartitionFor - phase
	}
	return false, 0
}

// Stats counts injected faults; a Proxy exposes one.
type Stats struct {
	Exchanges   uint64 `json:"exchanges"`
	Latencies   uint64 `json:"latencies"`
	Resets      uint64 `json:"resets"`
	Corruptions uint64 `json:"corruptions"`
	Truncations uint64 `json:"truncations"`
	Stalls      uint64 `json:"stalls"`
	Partitions  uint64 `json:"partition_holds"`
}
