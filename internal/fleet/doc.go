// Package fleet is the sosd front tier: it shards /v1/schedule requests
// across N sosd backends with a consistent-hash ring, fails over between
// ring replicas when a backend is sick, hedges requests that outlast their
// class's recent latency (cached, rank or adaptive) with a duplicate to the
// next replica, and coalesces identical in-flight requests into one backend
// call.
//
// The design leans on one property the backends guarantee: responses are a
// pure function of the request bytes, so any replica's answer is
// byte-identical to any other's. That is what makes failover and hedging
// safe without coordination — the front tier never has to reconcile
// divergent answers, only pick whichever arrives first.
//
// Composition per backend mirrors the backend's own pipeline: a
// resilience.Breaker guards against a sick node, an active health checker
// (probing /readyz) ejects nodes that stop answering and readmits them via
// half-open probes, and per-backend metrics make every ejection, failover
// and hedge win visible on /metrics. See DESIGN.md section 13.
package fleet
