package fleet

import (
	"context"
	"slices"
	"time"

	"symbios/internal/integrity"
	"symbios/internal/rng"
)

// Divergence quarantine exploits the fleet's byte-identical-response
// contract (DESIGN §13): for a given request, every correct replica returns
// the same bytes, so digest equality between two replicas' answers is an
// exact correctness cross-check that costs one hash. The digest envelope
// catches the wire lying; this layer catches a replica that is *honestly
// wrong* — stamping a valid digest over a divergent answer (bad warm cache,
// corrupted snapshot, skew after a partial deploy).
//
// Evidence arrives on two paths:
//
//   - Hedge losers (CompareHedges): the dispatch machine keeps draining a
//     hedge's straggler after it answers instead of cancelling it, and
//     compareStraggler checks its digest against the winner's. The compare
//     is one hash; the drained loser is a whole second run of the request
//     (DESIGN §13 prices it).
//   - Background audits (AuditRate): a deterministic low-rate draw re-asks
//     a second replica after a request was answered and compares.
//
// A mismatch alone does not convict: arbitrate asks a third replica, and
// charges says whom its answer convicts. Readmit probes ride the audit
// draws. The backend machine (backend.go) turns both into quarantine.
//
// The byte-identical contract holds between replicas at full service only: a
// browned-out replica answers an adaptive request as a rank request (mode 1)
// or round-robin (mode 2) by design. So an answer is evidence — as either
// side of a pair, as an arbiter's opinion, as a readmit probe or its
// authority — only when it advertises X-Brownout-Mode 0 (or predates the
// header); a healthy/degraded pair that disagrees honestly charges nobody.

// DivergenceConfig tunes replica divergence detection and quarantine.
type DivergenceConfig struct {
	// CompareHedges lets a hedge loser run to completion and be digest-
	// compared against the winner instead of being cancelled on the spot.
	// The zero value is off; sosfront always turns it on.
	// It trades a second complete run of every hedged request — a full
	// evaluation, for a miss — for a divergence probe.
	CompareHedges bool
	// AuditRate is the per-answered-request probability of a background
	// audit (0 disables auditing and, with it, quarantine readmission).
	AuditRate float64
	// Seed drives the deterministic audit draw: audit i fires iff
	// Float01(Hash2(Seed, i, saltAudit)) < AuditRate.
	Seed uint64
	// QuarantineAfter is the divergence-observation count that quarantines
	// a backend (< 1 selects 3).
	QuarantineAfter int
	// ReadmitAfter is the consecutive clean readmit probes required to lift
	// a quarantine (< 1 selects 2).
	ReadmitAfter int
}

// auditTimeout bounds one audit's or straggler compare's attempts.
const auditTimeout = 2 * time.Second

// fullService reports whether r was answered at full service — the only
// kind of answer the byte-identical contract covers.
func fullService(r *Result) bool {
	mode := r.Header.Get("X-Brownout-Mode")
	return mode == "" || mode == "0"
}

// evidence reports whether an attempt's outcome can be digest-compared: a
// deterministic answer given at full service. Sheds, failures and timeouts
// say nothing about divergence.
func evidence(out attemptOut) bool {
	return out.class == classGood && out.res != nil && fullService(out.res)
}

// maybeAudit decides — deterministically — whether the just-answered
// request triggers a background audit, and spawns it if so. Quarantined
// backends are probed for readmission on the same draws, so the audit rate
// also paces recovery.
func (f *Front) maybeAudit(req *request, winner *Result) {
	dc := f.cfg.Divergence
	if dc.AuditRate <= 0 || winner == nil {
		return
	}
	idx := f.auditIdx.Add(1) - 1
	if rng.Float01(rng.Hash2(dc.Seed, idx, saltAudit)) >= dc.AuditRate {
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.audit(req, winner)
	}()
}

// audit re-asks a second replica for the shard and digest-compares its
// answer against what was served, then runs readmit probes against every
// quarantined backend using the served answer as the authority.
func (f *Front) audit(req *request, winner *Result) {
	if !fullService(winner) {
		return // a degraded answer is no authority to compare against
	}
	ctx, cancel := context.WithTimeout(f.base, auditTimeout)
	defer cancel()
	wantDigest := integrity.Digest(winner.Body)

	second := f.arbiter(winner.Backend)
	if second != nil {
		f.obsAudits.Inc()
		out := f.attempt(ctx, second, req, true)
		if evidence(out) && integrity.Digest(out.res.Body) != wantDigest {
			f.obsAuditMiss.Inc()
			f.arbitrate(ctx, req, winner, out.res)
		}
	}
	f.readmitProbes(ctx, req, wantDigest)
}

// arbiter returns a backend able to give a second opinion: the first
// candidate (healthy, not quarantined) whose base is not excluded. The
// fleet's byte-identical contract means an arbiter need not sit in the
// key's replica set — every correct replica computes the same bytes — so
// opinions are drawn fleet-wide. That matters at Replicas=2, where the
// placement set contains exactly the two disagreeing parties.
func (f *Front) arbiter(exclude ...string) *backend {
	for _, b := range f.backends {
		if b.state().verdict() == candidate && !slices.Contains(exclude, b.base) {
			return b
		}
	}
	return nil
}

// charges reads a third replica's answer (nil when there was none) against
// the digests of a mismatched pair and returns which of the two takes a
// divergence observation: the odd one out. With no third replica, or when
// all three disagree, both do — the contract says they cannot both be
// right, and in a two-replica fleet symmetric suspicion beats guessing. But
// when a third exists and merely fails to give evidence (timeout, shed,
// wire damage, brownout), no one does: transport trouble is not divergence,
// and convicting the honest half of a mismatch would let a flaky wire
// quarantine correct replicas. A real divergence is deterministic, so the
// mismatch resurfaces on a later audit and conviction is only delayed.
func charges(third *attemptOut, da, db string) [2]bool {
	switch {
	case third == nil:
	case !evidence(*third):
		return [2]bool{}
	case integrity.Digest(third.res.Body) == da:
		return [2]bool{false, true}
	case integrity.Digest(third.res.Body) == db:
		return [2]bool{true, false}
	}
	return [2]bool{true, true}
}

// arbitrate resolves a divergence between two answers by asking a replica
// that produced neither, and charges whom its answer convicts.
func (f *Front) arbitrate(ctx context.Context, req *request, a, b *Result) {
	var third *attemptOut
	if t := f.arbiter(a.Backend, b.Backend); t != nil {
		out := f.attempt(ctx, t, req, true)
		third = &out
	}
	charged := charges(third, integrity.Digest(a.Body), integrity.Digest(b.Body))
	for i, r := range [...]*Result{a, b} {
		if charged[i] {
			f.byBase[r.Backend].feed(backendEvent{kind: diverged}, f.cfg.Logger)
		}
	}
}

// probeEvent reads a readmit probe's answer out against the served digest:
// agreeing is clean, disagreeing recharges, and an answer that is no
// evidence (failed, shed, browned out) is no event at all.
func probeEvent(out attemptOut, want string) (backendEvent, bool) {
	switch {
	case !evidence(out):
		return backendEvent{}, false
	case integrity.Digest(out.res.Body) != want:
		return backendEvent{kind: diverged}, true
	}
	return backendEvent{kind: cleanProbe}, true
}

// readmitProbes re-asks every quarantined backend and feeds what each
// answer says about it.
func (f *Front) readmitProbes(ctx context.Context, req *request, wantDigest string) {
	for _, b := range f.backends {
		if b.state().verdict() != probeOnly {
			continue
		}
		if e, ok := probeEvent(f.attempt(ctx, b, req, true), wantDigest); ok {
			b.feed(e, f.cfg.Logger)
		}
	}
}

// compareStraggler digest-compares a straggler's answer against the one
// served and arbitrates a mismatch. Both must be full-service evidence from
// different replicas; anything else is no verdict on anyone.
func (f *Front) compareStraggler(req *request, winner *Result, out attemptOut) {
	if !fullService(winner) || !evidence(out) || out.res.Backend == winner.Backend ||
		integrity.Digest(out.res.Body) == integrity.Digest(winner.Body) {
		return
	}
	ctx, cancel := context.WithTimeout(f.base, auditTimeout)
	defer cancel()
	f.arbitrate(ctx, req, winner, out.res)
}
