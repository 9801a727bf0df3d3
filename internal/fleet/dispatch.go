package fleet

import (
	"context"
	"fmt"
	"time"

	"symbios/internal/resilience"
	"symbios/internal/rng"
)

// A dispatch is a pure transition function, step, driven by dispatchRun,
// which owns every clock, channel, budget and backend and turns what
// happens into events. A test can thus enumerate every event ordering;
// DESIGN §13 tabulates state × event → actions.

// event is one input to step; the first three are attempt outcomes, in
// attemptClass order.
type event uint8

const (
	evGood event = iota
	evShed
	evFail
	evStart    // the dispatch begins
	evHedge    // the hedge timer fired and the target's budget paid
	evHedgeDry // the hedge timer fired and no hedge was paid for
	evBackoff  // the failover backoff timer fired
	evDone     // the request's context ended
)

// phase is running until the answer, draining while CompareHedges waits
// out the stragglers, and done once nothing is left in flight.
type phase uint8

const (
	running phase = iota
	draining
	done
)

// dispatchState is everything a dispatch decides by. Of its n candidates,
// [:next] have each been launched once; pending counts the failures not
// yet failed over from.
type dispatchState struct {
	phase                             phase
	n, next, inflight, pending        int
	hedgeArmed, backoffArmed, compare bool
}

// acts is what one step asks of the driver, in field order. A launch is on
// the cursor's candidate before the step: a hedge on evHedge, a failover on
// evBackoff, else the primary. answer stops both timers and answers with
// the good result just delivered, the context's error on evDone, else the
// failures seen. compare digest-checks the straggler just delivered;
// release ends the dispatch, cancelling what is still in flight.
type acts struct {
	launch, armHedge, armBackoff, answer, compare, release bool
}

// hedgeTarget is the candidate a hedge would launch on now, or -1: a hedge
// needs an armed timer, an attempt to race and an untried candidate. The
// driver asks that candidate's budget, and feeds evHedge only if it pays.
func (s dispatchState) hedgeTarget() int {
	if s.phase != running || !s.hedgeArmed || s.inflight == 0 || s.next >= s.n {
		return -1
	}
	return s.next
}

// step is the transition function. It is never fed once done.
func (s dispatchState) step(e event) (dispatchState, acts) {
	var a acts
	switch {
	case e == evDone:
		a.answer = s.phase == running
	case e <= evFail:
		s.inflight--
		switch {
		case s.phase == draining:
			a.compare = true
		case e == evGood:
			// Served at once, whatever timers are armed: a pending backoff
			// paces the next launch, never an answer already in hand.
			a.answer = true
		default:
			s.pending++
		}
	case e == evStart:
		a.launch = s.n > 0
		a.armHedge = s.n > 1
		s.hedgeArmed = a.armHedge
	case e == evBackoff:
		s.backoffArmed = false
		s.pending--
		a.launch = s.next < s.n
	default:
		// Only a paid hedge consumes the candidate: a dry budget leaves it
		// untried, so corrective failover can still reach it.
		a.launch = e == evHedge && s.hedgeTarget() >= 0
		s.hedgeArmed = false
	}
	if a.launch {
		s.next++
		s.inflight++
	}
	if s.phase == running && !a.answer {
		// Pace the next failover while there is a candidate left to take it;
		// answer once nothing is in flight and no failover is pending.
		a.armBackoff = s.pending > 0 && !s.backoffArmed && s.next < s.n
		s.backoffArmed = s.backoffArmed || a.armBackoff
		a.answer = s.inflight == 0 && !s.backoffArmed
	}
	if a.answer {
		s.phase = draining
		s.hedgeArmed, s.backoffArmed = false, false
	}
	if s.phase == draining && (e == evDone || s.inflight == 0 || !s.compare) {
		a.release = true
		s.phase = done
		s.inflight = 0
	}
	return s, a
}

// dispatchRun drives one request's dispatchState. ctx, the request's
// budget, parents every attempt; each writes one result into a buffered
// channel, so abandoned attempts finish (and settle their breaker permits)
// unread. failed holds the sheds and failures read, oldest first; the next
// failover fails over from failed[failovers].
type dispatchRun struct {
	f              *Front
	req            *request
	cands          []*backend
	ctx            context.Context
	cancel         context.CancelFunc
	results        chan attemptOut
	hedge, backoff *time.Timer // nil unless armed
	failed         []attemptOut
	failovers      int
	res            *Result
	err            error
}

// dispatch runs the failover/hedge machine against the key's replica
// chain, under the request's clamped deadline. A machine still draining
// stragglers when it answers runs on in a goroutine until the last one is
// compared.
func (f *Front) dispatch(req *request) (*Result, error) {
	ctx, cancel := resilience.WithBudget(f.base, req.deadline, f.cfg.DeadlineDef, f.cfg.DeadlineMax)
	r := &dispatchRun{f: f, req: req, ctx: ctx, cancel: cancel, cands: f.candidates(req.key)}
	r.results = make(chan attemptOut, len(r.cands))
	st := dispatchState{n: len(r.cands), compare: f.cfg.Divergence.CompareHedges}
	st = r.run(r.feed(st, evStart, attemptOut{}))
	res, err := r.res, r.err
	if st.phase == draining {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			r.run(st)
		}()
	}
	return res, err
}

// run turns what happens into events until the machine leaves the phase it
// is in: a running dispatch until it answers, a draining one until its last
// straggler is compared.
func (r *dispatchRun) run(st dispatchState) dispatchState {
	for p := st.phase; st.phase == p && p != done; {
		select {
		case out := <-r.results:
			if out.class != classGood {
				r.failed = append(r.failed, out)
			}
			st = r.feed(st, event(out.class), out)
		case <-timerC(r.hedge):
			r.hedge = nil
			e := evHedgeDry
			if t := st.hedgeTarget(); t >= 0 && r.cands[t].budget.TryWithdraw() {
				e = evHedge
			}
			st = r.feed(st, e, attemptOut{})
		case <-timerC(r.backoff):
			r.backoff = nil
			st = r.feed(st, evBackoff, attemptOut{})
		case <-r.ctx.Done():
			st = r.feed(st, evDone, attemptOut{})
		}
	}
	return st
}

// timerC is t's channel, or nil (never ready) when t is not armed.
func timerC(t *time.Timer) <-chan time.Time {
	if t == nil {
		return nil
	}
	return t.C
}

// feed steps the machine by e, whose result (if it reports one) is out, and
// performs the step's actions.
func (r *dispatchRun) feed(st dispatchState, e event, out attemptOut) dispatchState {
	f := r.f
	next, a := st.step(e)
	if a.launch {
		b, hedge := r.cands[st.next], e == evHedge
		go func() { r.results <- f.attempt(r.ctx, b, r.req, hedge) }()
		if hedge {
			f.obsHedges.Inc()
		}
		if e == evBackoff {
			r.failed[r.failovers].b.obsFailovers.Inc()
			r.failovers++
		}
	}
	if a.armHedge {
		r.hedge = time.NewTimer(f.hedge.delay(r.req))
	}
	if a.armBackoff {
		// Full jitter, a pure function of (shard key, failover index) so
		// chaos-soak timing replays.
		jitter := rng.Float01(rng.Hash2(hashString(r.req.key), uint64(r.failovers), saltFailover))
		r.backoff = time.NewTimer(resilience.BackoffDelay(resilience.RetryConfig{
			BaseDelay: f.cfg.FailoverBase,
			MaxDelay:  f.cfg.FailoverMax,
			Jitter:    func(int) float64 { return jitter },
		}, r.failovers))
	}
	if a.answer {
		r.answer(e, out)
	}
	if a.compare {
		f.compareStraggler(r.req, r.res, out)
	}
	if a.release {
		r.cancel()
	}
	return next
}

// answer stops the timers and records the client's answer to e.
func (r *dispatchRun) answer(e event, out attemptOut) {
	for _, t := range [...]*time.Timer{r.hedge, r.backoff} {
		if t != nil {
			t.Stop()
		}
	}
	r.hedge, r.backoff = nil, nil
	if e == evGood {
		if out.hedge {
			out.b.obsHedgeWins.Inc()
		}
		r.res = out.res
		r.f.maybeAudit(r.req, out.res)
		return
	}
	if e == evDone {
		r.err = r.ctx.Err()
		return
	}
	// Relay the latest shed, with its Retry-After, else report the latest
	// failure.
	for _, o := range r.failed {
		if o.class == classShed {
			r.res = o.res
		} else {
			r.err = o.err
		}
	}
	switch {
	case r.res != nil:
		r.err = nil
	case r.err == nil:
		r.err = fmt.Errorf("fleet: no replica available for %s", r.req.key)
	default:
		// %v on purpose: the failure often wraps an attempt-level timeout, and
		// letting that chain escape would make errors.Is(err, DeadlineExceeded)
		// misread "every replica failed" as "the request's own deadline died" —
		// the handler would answer 504 with no Retry-After instead of a
		// retryable 502.
		r.err = fmt.Errorf("fleet: all %d replicas failed: %v", len(r.cands), r.err)
	}
}
