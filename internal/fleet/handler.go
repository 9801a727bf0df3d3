package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"symbios/internal/integrity"
)

// Handler builds the front tier's route table: the sharded /v1/schedule
// proxy plus the usual operational endpoints.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", f.handleSchedule)
	mux.HandleFunc("GET /v1/mixes", f.handleMixes)
	mux.HandleFunc("GET /v1/quarantine", f.handleQuarantine)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.HandleFunc("GET /statz", f.handleStatz)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	return mux
}

// httpError writes a JSON error body with the given status. Every body the
// front writes itself is digest-stamped — the integrity envelope's promise
// is "every byte on the wire is verifiable", and a strict verifier (the fleet
// soaks, Config.RequireDigest) must be able to tell a front-synthesized
// answer from a backend envelope a hop stripped.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeStamped(w, status, "application/json", errorBody(fmt.Sprintf(format, args...)))
}

// errorBody is the JSON error body the front writes itself.
func errorBody(msg string) []byte {
	body, _ := json.Marshal(map[string]string{"error": msg})
	return append(body, '\n')
}

// handleSchedule reads the body and hands it to the dispatcher, relaying
// whatever a replica answered byte-for-byte (plus which backend served it).
func (f *Front) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "front tier draining")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxBodyBytes {
		httpError(w, http.StatusBadRequest, "request body exceeds %d bytes", maxBodyBytes)
		return
	}
	res, err := f.Dispatch(r.Context(), body)
	switch {
	case err == nil:
		for k, vs := range res.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		if res.Backend != "" {
			w.Header().Set("X-Fleet-Backend", res.Backend)
		}
		w.WriteHeader(res.Status)
		w.Write(res.Body)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusBadGateway, "%v", err)
	}
}

// handleMixes relays the static mix list from the first backend whose
// answer roundTrip accepts — the same bound, size cap and digest rule a
// schedule attempt is held to. Any other candidate is skipped and the next
// one tried.
func (f *Front) handleMixes(w http.ResponseWriter, r *http.Request) {
	for _, b := range f.candidates("mixes") {
		res, err := f.roundTrip(r.Context(), b, http.MethodGet, "/v1/mixes", nil)
		if err != nil {
			f.cfg.Logger.Printf("backend %s: /v1/mixes: %v; trying next", b.base, err)
			continue
		}
		if res.Status != http.StatusOK {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		if v := res.Header.Get(integrity.Header); v != "" {
			w.Header().Set(integrity.Header, v)
		}
		w.Write(res.Body)
		return
	}
	httpError(w, http.StatusBadGateway, "no backend answered /v1/mixes")
}

// handleQuarantine reports divergence-quarantine state per backend: which
// replicas are currently excluded from placement, how much evidence each has
// accumulated, and the lifetime quarantine/readmit counts. Operators (and
// the partition soak) read this to confirm a diverging replica was isolated
// and later readmitted.
func (f *Front) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Backend     string `json:"backend"`
		Quarantined bool   `json:"quarantined"`
		Divergences uint64 `json:"divergences"`
		CleanProbes int    `json:"clean_probes"`
		Quarantines uint64 `json:"quarantines"`
		Readmits    uint64 `json:"readmits"`
	}
	out := struct {
		Quarantined int     `json:"quarantined"`
		Backends    []entry `json:"backends"`
	}{Quarantined: f.count(func(s backendState) bool { return s.quarantined }), Backends: []entry{}}
	for _, b := range f.backends {
		s := b.state()
		out.Backends = append(out.Backends, entry{b.base, s.quarantined, s.divergesSeen, s.cleanProbes, s.quarantines, s.qReadmits})
	}
	writeJSON(w, "quarantine state", out)
}

// writeJSON writes v, the named report, as a stamped JSON body.
func writeJSON(w http.ResponseWriter, what string, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding %s: %v", what, err)
		return
	}
	writeStamped(w, http.StatusOK, "application/json", append(body, '\n'))
}

// writeStamped writes a front-synthesized body with its integrity digest:
// nothing the front puts on the wire goes out unverifiable.
func writeStamped(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set(integrity.Header, integrity.Digest(body))
	w.WriteHeader(status)
	w.Write(body)
}

// handleHealthz is liveness: the front process is up.
func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeStamped(w, http.StatusOK, "text/plain; charset=utf-8", []byte("ok\n"))
}

// handleReadyz is readiness: not draining and at least one healthy backend.
func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if f.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if f.count(func(s backendState) bool { return s.healthy }) == 0 {
		httpError(w, http.StatusServiceUnavailable, "no healthy backend")
		return
	}
	writeStamped(w, http.StatusOK, "text/plain; charset=utf-8", []byte("ready\n"))
}

// handleStatz reports the fleet counters.
func (f *Front) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, "stats", f.Stats())
}

// handleMetrics serves the Prometheus exposition.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if f.cfg.Registry == nil {
		httpError(w, http.StatusNotFound, "metrics disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := f.cfg.Registry.WritePrometheus(w); err != nil {
		f.cfg.Logger.Printf("metrics write: %v", err)
	}
}
