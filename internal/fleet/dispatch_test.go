package fleet

import (
	"fmt"
	"slices"
	"testing"
)

// ghost is a dispatchState plus what an observer of the driver would have
// counted along the path that reached it, so that the dispatch invariants —
// most of them properties of a whole path — can be checked step by step.
type ghost struct {
	s        dispatchState
	answers  int // answers given
	hedges   int // hedges launched
	inflight int // attempts launched and neither delivered nor released
}

// enabled lists the events the driver can deliver to s: a result per
// attempt in flight (every outcome), a fired hedge timer (paid for, when
// there is a target, or not), a fired backoff timer, and the request's
// context ending.
func enabled(s dispatchState) []event {
	if s.phase == done {
		return nil
	}
	var es []event
	if s.inflight > 0 {
		es = append(es, evGood, evShed, evFail)
	}
	if s.hedgeArmed {
		es = append(es, evHedgeDry)
		if s.hedgeTarget() >= 0 {
			es = append(es, evHedge)
		}
	}
	if s.backoffArmed {
		es = append(es, evBackoff)
	}
	return append(es, evDone)
}

// check steps g by e and reports the first dispatch invariant the step
// breaks.
func (g ghost) check(e event) (ghost, error) {
	next, a := g.s.step(e)
	h := ghost{s: next, answers: g.answers, hedges: g.hedges, inflight: g.inflight}
	if e <= evFail {
		h.inflight--
	}
	if a.launch {
		h.inflight++
		if e == evHedge {
			h.hedges++
		}
	}
	if a.answer {
		h.answers++
	}
	if a.release {
		h.inflight = 0
	}
	advance := 0
	if a.launch {
		advance = 1
	}
	answered := h.answers > 0
	switch {
	case h.answers > 1:
		return h, fmt.Errorf("answered twice")
	case answered && (a.launch || a.armHedge || a.armBackoff):
		return h, fmt.Errorf("launched or armed a timer after (or with) the answer")
	case answered && (next.hedgeArmed || next.backoffArmed):
		return h, fmt.Errorf("a timer is still armed after the answer")
	case next.next != g.s.next+advance:
		return h, fmt.Errorf("cursor moved %d -> %d with launch=%v", g.s.next, next.next, a.launch)
	case g.s.phase == running && e == evGood && !a.answer:
		return h, fmt.Errorf("a good result was not answered in the step it arrived")
	case h.hedges > 1:
		return h, fmt.Errorf("hedged twice")
	case a.launch && e != evStart && e != evHedge && e != evBackoff:
		return h, fmt.Errorf("launched on %v, which pays for no launch (hedge without budget?)", e)
	case next.phase != done && next.inflight == 0 && !next.backoffArmed:
		return h, fmt.Errorf("waits with nothing in flight and nothing armed")
	case h.inflight != next.inflight:
		return h, fmt.Errorf("machine counts %d in flight, the world %d", next.inflight, h.inflight)
	case a.compare != (g.s.phase == draining && e <= evFail):
		return h, fmt.Errorf("compare=%v for %v while %v: a straggler must be compared exactly once", a.compare, e, g.s.phase)
	case a.release != (next.phase == done):
		return h, fmt.Errorf("release=%v on entering phase %v", a.release, next.phase)
	case next.phase == done && !answered:
		return h, fmt.Errorf("finished without an answer")
	case e == evDone && next.phase != done:
		return h, fmt.Errorf("still %v after the context ended", next.phase)
	}
	return h, nil
}

// explore walks every event ordering from the start of a dispatch over n
// candidates, deduplicating visited states, and fails at the first broken
// invariant with the event path that broke it. It returns how many times
// each notable thing happened across the walk.
func explore(t *testing.T, n int, compare bool) map[string]int {
	t.Helper()
	seen := map[ghost][]event{}
	var queue []ghost
	visit := func(g ghost, path []event, e event) {
		h, err := g.check(e)
		path = append(slices.Clone(path), e)
		if err != nil {
			t.Fatalf("n=%d compare=%v: %v after %v (state %+v)", n, compare, err, path, h.s)
		}
		if _, ok := seen[h]; !ok {
			seen[h] = path
			queue = append(queue, h)
		}
	}
	visit(ghost{s: dispatchState{n: n, compare: compare}}, nil, evStart)
	tally := map[string]int{}
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		tally["states"]++
		for _, e := range enabled(g.s) {
			_, a := g.s.step(e)
			tally["transitions"]++
			switch {
			case a.launch && e == evHedge:
				tally["hedges"]++
			case a.launch && e == evBackoff:
				tally["failovers"]++
			}
			if a.answer {
				tally[fmt.Sprintf("answers on %v", e)]++
			}
			if a.compare {
				tally["compares"]++
			}
			left := g.s.inflight
			if e <= evFail {
				left--
			}
			if a.release && left > 0 {
				tally["stragglers released"]++
			}
			visit(g, seen[g], e)
		}
	}
	return tally
}

// TestDispatchExplorer checks the dispatch machine exhaustively: every
// ordering of results (good, shed, fail), hedge timers paid for or not,
// backoff timers and context expiry, over 0–3 candidates with
// CompareHedges on and off.
func TestDispatchExplorer(t *testing.T) {
	for n := 0; n <= 3; n++ {
		for _, compare := range []bool{false, true} {
			tally := explore(t, n, compare)
			t.Logf("n=%d compare=%v: %v", n, compare, tally)
			if n == 3 && compare {
				// The walk must reach every kind of step, or it proves little.
				for _, k := range []string{"hedges", "failovers", "compares", "stragglers released",
					"answers on good", "answers on shed", "answers on fail", "answers on done"} {
					if tally[k] == 0 {
						t.Errorf("the walk never reached %q", k)
					}
				}
			}
		}
	}
}

// FuzzDispatchStep feeds random event scripts to the transition function:
// the first byte picks the candidate count and CompareHedges, and every
// later byte picks one of the events enabled at that point. Every step
// must keep the explorer's invariants. The seed corpus is in
// testdata/fuzz/FuzzDispatchStep.
func FuzzDispatchStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		s := dispatchState{n: int(script[0] % 4), compare: script[0]&4 != 0}
		g, err := ghost{s: s}.check(evStart)
		for i, b := range script[1:] {
			es := enabled(g.s)
			if err != nil || len(es) == 0 {
				break
			}
			if g, err = g.check(es[int(b)%len(es)]); err != nil {
				err = fmt.Errorf("step %d: %w", i+1, err)
			}
		}
		if err != nil {
			t.Fatalf("n=%d compare=%v: %v", s.n, s.compare, err)
		}
	})
}

func (e event) String() string {
	return [...]string{"good", "shed", "fail", "start", "hedge", "hedge-dry", "backoff", "done"}[e]
}

func (p phase) String() string {
	return [...]string{"running", "draining", "done"}[p]
}
