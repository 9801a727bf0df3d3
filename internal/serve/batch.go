package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Batch endpoint limits. The item bound keeps one envelope from monopolizing
// the evaluator (64 items of 32 samples each is already ~2k simulations);
// the byte bound is the per-item cap times the item bound, so a batch of
// maximal legitimate requests always fits.
const (
	// MaxBatchItems bounds the requests array of POST /v1/schedule/batch.
	MaxBatchItems = 64
	// MaxBatchRequestBytes bounds the whole batch request body.
	MaxBatchRequestBytes = MaxBatchItems * MaxRequestBytes
)

// batchRequest is the body of POST /v1/schedule/batch: an array of raw
// ScheduleRequest bodies. Items stay raw JSON through the envelope decode so
// each one is validated — and each validation error reported — individually,
// with exactly the bytes the singleton decoder would have seen.
type batchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// BatchItem is one per-item verdict inside a batch response envelope. For a
// 200 item, Body is the exact singleton response body minus its trailing
// newline, Cache is the X-Cache header value ("hit" or "miss") the singleton
// answer would have carried, and Digest is the singleton response digest —
// computed over Body plus the trailing newline — so a client reconstructing
// the singleton wire bytes (append '\n') can verify each item independently
// of its siblings and of the envelope. Error items carry the singleton error
// body and status the same way, with Cache empty.
type BatchItem struct {
	Status int             `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Digest string          `json:"digest"`
	Body   json.RawMessage `json:"body"`
}

// BatchResponse is the body of a successful batch envelope. The envelope
// itself is digest-stamped like every other response; per-item digests sit
// inside it.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// DecodeBatchRequest parses and validates a batch envelope, returning the
// raw per-item bodies. Like DecodeScheduleRequest it must never panic on
// hostile input; item-level validation is deliberately NOT done here — a
// malformed item is a per-item 400, not a batch-level one.
func DecodeBatchRequest(data []byte) ([]json.RawMessage, error) {
	if len(data) > MaxBatchRequestBytes {
		return nil, fmt.Errorf("batch body exceeds %d bytes", MaxBatchRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var env batchRequest
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("invalid JSON: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after batch object")
	}
	if len(env.Requests) == 0 {
		return nil, fmt.Errorf("batch carries no requests")
	}
	if len(env.Requests) > MaxBatchItems {
		return nil, fmt.Errorf("batch carries %d requests, max %d", len(env.Requests), MaxBatchItems)
	}
	return env.Requests, nil
}

// handleScheduleBatch answers a bounded array of schedule requests in one
// envelope: the same pipeline a singleton rides, rendered per item, so every
// item's bytes are byte-identical to the singleton answer for the same
// request. Only a malformed envelope or a whole-request refusal (drain,
// admission, breaker, queue, deadline) fails the batch, with the statuses and
// Retry-After hints the singleton path uses.
func (s *Server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	mode, ok := s.gate(w)
	if !ok {
		return
	}
	t0 := time.Now()
	body, ok := readBody(w, r, MaxBatchRequestBytes)
	if !ok {
		return
	}
	items, err := DecodeBatchRequest(body)
	s.obs.stageDecode.ObserveSince(t0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.obs.batchRequests.Inc()
	// Admission runs after the envelope decode (the charge needs the item
	// count) but before per-item validation, like the singleton path charges
	// before decoding.
	if !s.admit(w, len(items)) {
		return
	}
	answers, refusal := s.schedule(r, mode, items, true)
	if refusal != nil {
		refusal.write(w)
		return
	}
	env := BatchResponse{Items: make([]BatchItem, len(answers))}
	for i, a := range answers {
		env.Items[i] = BatchItem{
			Status: a.status,
			Cache:  a.cache,
			Digest: a.digest,
			Body:   json.RawMessage(a.wire[:len(a.wire)-1]),
		}
		s.obs.countBatchItem(env.Items[i])
	}
	s.writeJSON(w, http.StatusOK, env)
}
