package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"symbios/internal/serve"
)

// FuzzDecodeScheduleRequest drives the request decoder with hostile bodies.
// The invariants: never panic, reject oversized input outright, and never
// accept an invalid request — the returned request, when err is nil, is in
// range and fully normalized: re-encoded, it decodes to itself, so the
// decoder's own validation (predictor, mode, fault block) holds on it.
func FuzzDecodeScheduleRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"mix":"Jsb(4,2,2)"}`,
		`{"mix":"Jsb(4,2,2)","seed":7,"samples":4,"mode":"adaptive"}`,
		`{"mix":"Jsb(6,3,3)","predictor":"IPC","deadline_ms":100}`,
		`{"mix":"Jsb(4,2,2)","fault":{"fail_rate":0.2,"noise_sigma":0.1}}`,
		`{"mix":"Jsb(4,2,2)","fault":{"fail_rate":1e999}}`,
		`{"mix":"Jsb(4,2,2)","samples":-1}`,
		`{"mix":"Jsb(4,2,2)","deadline_ms":-5}`,
		`{"mix":"Jsb(4,2,2)"} {"mix":"Jsb(4,2,2)"}`,
		`[1,2,3]`,
		`"just a string"`,
		`{"mix":{"nested":"object"}}`,
		strings.Repeat("[", 10_000),
		`{"mix":"` + strings.Repeat("A", 20_000) + `"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := serve.DecodeScheduleRequest(data)
		if err != nil {
			return
		}
		if len(data) > serve.MaxRequestBytes {
			t.Fatalf("accepted %d-byte body over the %d cap", len(data), serve.MaxRequestBytes)
		}
		if req.Samples < 1 || req.Samples > serve.MaxSamples {
			t.Fatalf("accepted samples %d out of range", req.Samples)
		}
		if req.Mode != "rank" && req.Mode != "adaptive" {
			t.Fatalf("accepted mode %q", req.Mode)
		}
		if req.DeadlineMS < 0 || req.DeadlineMS > serve.MaxDeadlineMS {
			t.Fatalf("accepted deadline_ms %d out of range", req.DeadlineMS)
		}
		if req.Fault != nil && !req.Fault.Active() {
			t.Fatal("inactive fault block not normalized to nil")
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding accepted request: %v", err)
		}
		again, err := serve.DecodeScheduleRequest(enc)
		if err != nil {
			t.Fatalf("accepted request re-encodes to a rejected body %s: %v", enc, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("normalization is not a fixed point:\n got %+v\nwant %+v", again, req)
		}
		// The fingerprint must be total on every accepted request.
		if req.Fingerprint() == "" {
			t.Fatal("empty fingerprint for accepted request")
		}
	})
}

// FuzzDecodeBatchRequest drives the batch envelope decoder with hostile
// bodies: oversized arrays, duplicate and NaN-bearing items, truncated JSON.
// The envelope decoder must never panic and never accept an out-of-bounds
// batch; item-level garbage is deliberately accepted here (it becomes a
// per-item 400 downstream), but each accepted raw item must survive the
// singleton decoder without panicking too.
func FuzzDecodeBatchRequest(f *testing.F) {
	item := `{"mix":"Jsb(4,2,2)","seed":7,"samples":4}`
	many := item
	for i := 0; i < 70; i++ {
		many += "," + item
	}
	seeds := []string{
		``,
		`{}`,
		`{"requests":[]}`,
		`{"requests":[` + item + `]}`,
		`{"requests":[` + item + `,` + item + `]}`, // duplicates
		`{"requests":[` + many + `]}`,              // over the item bound
		`{"requests":[{"mix":"Jsb(4,2,2)","fault":{"fail_rate":1e999}}]}`,
		`{"requests":[{"mix":"Jsb(4,2,2)","fault":{"noise_sigma":NaN}}]}`,
		`{"requests":[` + item + `]} trailing`,
		`{"requests":[` + item + `],"extra":true}`,
		`{"requests":"not an array"}`,
		`{"requests":[1,2,3]}`,
		strings.Repeat(`{"requests":[`, 5_000),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := serve.DecodeBatchRequest(data)
		if err != nil {
			return
		}
		if len(data) > serve.MaxBatchRequestBytes {
			t.Fatalf("accepted %d-byte batch over the %d cap", len(data), serve.MaxBatchRequestBytes)
		}
		if len(items) < 1 || len(items) > serve.MaxBatchItems {
			t.Fatalf("accepted %d items outside [1,%d]", len(items), serve.MaxBatchItems)
		}
		for _, raw := range items {
			// Item validation is the singleton decoder's job; it must hold
			// its own no-panic guarantee on whatever the envelope let through.
			serve.DecodeScheduleRequest(raw)
		}
	})
}
