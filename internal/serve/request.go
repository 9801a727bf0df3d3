package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"symbios/internal/core"
	"symbios/internal/faults"
	"symbios/internal/workload"
)

// MaxRequestBytes bounds a /v1/schedule request body. The largest legitimate
// request (every field plus a full fault block) is under 1 KiB; the cap is
// generous while keeping a hostile body from ballooning the decoder.
const MaxRequestBytes = 16 << 10

// Request limits. Deadlines are bounded by server policy as well; these just
// reject nonsense at the decode layer.
const (
	MaxSamples    = 32
	MaxDeadlineMS = 600_000
)

// ScheduleRequest is the body of POST /v1/schedule.
type ScheduleRequest struct {
	// Mix is a registered jobmix label, e.g. "Jsb(6,3,3)".
	Mix string `json:"mix"`
	// Seed drives every random choice the evaluation makes; identical
	// requests (same seed included) return byte-identical responses.
	Seed uint64 `json:"seed"`
	// Predictor is the paper predictor ranking the samples ("IPC",
	// "AllConf", ..., "Score"). Empty selects "Score".
	Predictor string `json:"predictor,omitempty"`
	// Samples caps the schedules sampled. 0 selects 10; max 32.
	Samples int `json:"samples,omitempty"`
	// Mode is "rank" (sample + predictor ranking; the default) or
	// "adaptive" (full adaptive SOS run, returns the realized WS).
	Mode string `json:"mode,omitempty"`
	// DeadlineMS is the client's latency budget; 0 uses the server default.
	// The server clamps it to its own maximum either way.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Fault optionally injects counter faults into this request's machine.
	// Only honored when the server runs with -chaos; otherwise rejected.
	Fault *faults.Config `json:"fault,omitempty"`
}

// RankedSchedule is one entry of a rank-mode response, best first.
type RankedSchedule struct {
	Schedule string  `json:"schedule"`
	IPC      float64 `json:"ipc"`
}

// ScheduleResponse is the body of a successful /v1/schedule reply. The
// server marshals it exactly once per distinct request fingerprint and
// replays the cached bytes thereafter, so responses are byte-identical.
type ScheduleResponse struct {
	Mix       string `json:"mix"`
	Mode      string `json:"mode"`
	Predictor string `json:"predictor"`
	Seed      uint64 `json:"seed"`

	// Best is the chosen coschedule in schedule.String() notation (rank
	// mode; the adaptive scheduler reports its realized speedup instead,
	// since it re-decides the schedule throughout the run).
	Best string `json:"best,omitempty"`
	// Ranking is the full predictor-ranked candidate list (rank mode).
	Ranking []RankedSchedule `json:"ranking,omitempty"`

	// Adaptive-mode results.
	WeightedSpeedup float64 `json:"weighted_speedup,omitempty"`
	Cycles          uint64  `json:"cycles,omitempty"`
	Resamples       int     `json:"resamples,omitempty"`
	Retries         int     `json:"retries,omitempty"`

	// Degraded marks an answer produced below full service quality by the
	// brownout ladder's most degraded mode ("round-robin": the arrival-order
	// schedule, no simulation). Degraded answers are never cached, so they
	// can never be replayed once the ladder recovers.
	Degraded string `json:"degraded,omitempty"`
}

// predictorNames maps wire names to predictors, built once from the core
// registry so the two can never drift.
var predictorNames = func() map[string]core.Predictor {
	m := make(map[string]core.Predictor, int(core.NumPredictors))
	for _, p := range core.Predictors() {
		if p == core.NumPredictors {
			continue
		}
		m[p.String()] = p
	}
	return m
}()

// DecodeScheduleRequest parses and validates a request body. It must never
// panic on hostile input (the fuzz target drives it with garbage): unknown
// fields, trailing data, out-of-range numbers and non-finite fault rates
// are all errors, not surprises downstream.
func DecodeScheduleRequest(data []byte) (ScheduleRequest, error) {
	var req ScheduleRequest
	if len(data) > MaxRequestBytes {
		return req, fmt.Errorf("request body exceeds %d bytes", MaxRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("invalid JSON: %v", err)
	}
	if dec.More() {
		return req, fmt.Errorf("trailing data after request object")
	}
	if req.Mix == "" {
		return req, fmt.Errorf("missing required field \"mix\"")
	}
	if _, err := workload.MixByLabel(req.Mix); err != nil {
		return req, fmt.Errorf("unknown mix %q (see GET /v1/mixes)", req.Mix)
	}
	if req.Predictor == "" {
		req.Predictor = core.PredScore.String()
	}
	if _, ok := predictorNames[req.Predictor]; !ok {
		return req, fmt.Errorf("unknown predictor %q", req.Predictor)
	}
	if req.Samples == 0 {
		req.Samples = 10
	}
	if req.Samples < 1 || req.Samples > MaxSamples {
		return req, fmt.Errorf("samples %d out of range [1,%d]", req.Samples, MaxSamples)
	}
	switch req.Mode {
	case "":
		req.Mode = "rank"
	case "rank", "adaptive":
	default:
		return req, fmt.Errorf("unknown mode %q (want \"rank\" or \"adaptive\")", req.Mode)
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > MaxDeadlineMS {
		return req, fmt.Errorf("deadline_ms %d out of range [0,%d]", req.DeadlineMS, MaxDeadlineMS)
	}
	if req.Fault != nil {
		if err := validateFault(*req.Fault); err != nil {
			return req, err
		}
		if !req.Fault.Active() {
			req.Fault = nil // an all-zero fault block is the same as none
		}
	}
	return req, nil
}

// validateFault rejects fault configs the injector's math would mishandle.
func validateFault(fc faults.Config) error {
	rates := []struct {
		name       string
		v          float64
		probLimits bool
	}{
		{"noise_sigma", fc.NoiseSigma, false},
		{"drop_rate", fc.DropRate, true},
		{"sticky_rate", fc.StickyRate, true},
		{"fail_rate", fc.FailRate, true},
	}
	for _, r := range rates {
		if math.IsNaN(r.v) || math.IsInf(r.v, 0) {
			return fmt.Errorf("fault.%s is not finite", r.name)
		}
		if r.v < 0 {
			return fmt.Errorf("fault.%s is negative", r.name)
		}
		if r.probLimits && r.v > 1 {
			return fmt.Errorf("fault.%s exceeds 1", r.name)
		}
	}
	if fc.NoiseSigma > 10 {
		return fmt.Errorf("fault.noise_sigma exceeds 10")
	}
	return nil
}

// Fingerprint is the response-cache key: the canonical encoding of every
// field that affects the result. DeadlineMS is deliberately excluded — the
// deadline bounds how long the work may take, never what it computes — so a
// client retrying with a longer budget still hits the cache.
func (r ScheduleRequest) Fingerprint() string {
	key := struct {
		Mix       string         `json:"mix"`
		Seed      uint64         `json:"seed"`
		Predictor string         `json:"predictor"`
		Samples   int            `json:"samples"`
		Mode      string         `json:"mode"`
		Fault     *faults.Config `json:"fault,omitempty"`
	}{r.Mix, r.Seed, r.Predictor, r.Samples, r.Mode, r.Fault}
	b, err := json.Marshal(key)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail.
		panic(err)
	}
	return string(b)
}
