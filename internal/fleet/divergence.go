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
// A mismatch alone does not convict — two replicas disagreeing identifies
// no culprit — so arbitrate asks a third replica and the odd one out takes
// the divergence observation (both do, when no third exists). A backend
// reaching QuarantineAfter observations is quarantined: excluded from
// placement entirely (see candidates) until ReadmitAfter consecutive clean
// readmit probes — which ride the same audit draws, re-asking every
// quarantined backend and comparing against the authoritative answer —
// prove it agrees with the fleet again.
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
	// AuditTimeout bounds one audit or readmit probe (<= 0 selects 2s).
	AuditTimeout time.Duration
}

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
	ctx, cancel := context.WithTimeout(f.base, f.cfg.Divergence.AuditTimeout)
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
// healthy, non-quarantined backend whose base is not excluded. The fleet's
// byte-identical contract means an arbiter need not sit in the key's
// replica set — every correct replica computes the same bytes — so
// opinions are drawn fleet-wide. That matters at Replicas=2, where the
// placement set contains exactly the two disagreeing parties.
func (f *Front) arbiter(exclude ...string) *backend {
	for _, b := range f.backends {
		if !b.isQuarantined() && b.isHealthy() && !slices.Contains(exclude, b.base) {
			return b
		}
	}
	return nil
}

// arbitrate resolves a divergence between two answers by asking a replica
// that produced neither: the odd one out takes the divergence observation.
// With no third replica available, both are observed — the contract says
// they cannot both be right, and in a two-replica fleet symmetric suspicion
// beats guessing. But when a third exists and merely fails to answer
// (timeout, shed, wire damage), no one is charged: transport trouble is not
// divergence evidence, and convicting the honest half of a mismatch would
// let a flaky wire quarantine correct replicas. A real divergence is
// deterministic, so the mismatch resurfaces on a later audit and conviction
// is only delayed, never lost.
func (f *Front) arbitrate(ctx context.Context, req *request, a, b *Result) {
	da, db := integrity.Digest(a.Body), integrity.Digest(b.Body)
	third := f.arbiter(a.Backend, b.Backend)
	if third != nil {
		out := f.attempt(ctx, third, req, true)
		if !evidence(out) {
			return // inconclusive tiebreak: no evidence either way
		}
		switch integrity.Digest(out.res.Body) {
		case da:
			f.observeDivergence(f.byBase[b.Backend])
			return
		case db:
			f.observeDivergence(f.byBase[a.Backend])
			return
		}
		// Three-way disagreement: at least two of three are wrong; fall
		// through to symmetric suspicion.
	}
	f.observeDivergence(f.byBase[a.Backend])
	f.observeDivergence(f.byBase[b.Backend])
}

// observeDivergence charges one divergence observation to a backend and
// quarantines it when it crosses the configured threshold.
func (f *Front) observeDivergence(b *backend) {
	if b == nil {
		return
	}
	b.obsDiverges.Inc()
	b.mu.Lock()
	b.divergences++
	b.divergesSeen++
	b.cleanProbes = 0
	quarantineNow := !b.quarantined && b.divergences >= f.cfg.Divergence.QuarantineAfter
	if quarantineNow {
		b.quarantined = true
		b.quarantines++
	}
	n := b.divergences
	b.mu.Unlock()
	if quarantineNow {
		b.obsQuarantines.Inc()
		f.cfg.Logger.Printf("backend %s quarantined after %d divergence observations", b.base, n)
	} else {
		f.cfg.Logger.Printf("backend %s divergence observation %d/%d", b.base, n, f.cfg.Divergence.QuarantineAfter)
	}
}

// readmitProbes re-asks every quarantined backend and compares against the
// authoritative digest; ReadmitAfter consecutive clean answers lift the
// quarantine, any divergent answer resets the count (and recharges an
// observation).
func (f *Front) readmitProbes(ctx context.Context, req *request, wantDigest string) {
	for _, b := range f.backends {
		if !b.isQuarantined() {
			continue
		}
		out := f.attempt(ctx, b, req, true)
		if !evidence(out) {
			continue // inconclusive: quarantine stands, count unchanged
		}
		if integrity.Digest(out.res.Body) != wantDigest {
			f.observeDivergence(b)
			continue
		}
		b.mu.Lock()
		b.cleanProbes++
		readmit := b.cleanProbes >= f.cfg.Divergence.ReadmitAfter
		if readmit {
			b.quarantined = false
			b.divergences = 0
			b.cleanProbes = 0
			b.qReadmits++
		}
		n := b.cleanProbes
		b.mu.Unlock()
		if readmit {
			f.cfg.Logger.Printf("backend %s readmitted from quarantine", b.base)
		} else {
			f.cfg.Logger.Printf("backend %s clean quarantine probe %d/%d", b.base, n, f.cfg.Divergence.ReadmitAfter)
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
	ctx, cancel := context.WithTimeout(f.base, f.cfg.Divergence.AuditTimeout)
	defer cancel()
	f.arbitrate(ctx, req, winner, out.res)
}
