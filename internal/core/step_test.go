package core

import (
	"fmt"
	"testing"

	"symbios/internal/schedule"
)

// The adaptive controller's explorer: the pure step driven through every
// order of drive's answers (candidates drawn, samples measured or lost,
// picks usable or degenerate, windows ok, short of the prediction, lost or
// cut by churn), with no core. After every step it checks the controller's
// rules:
//
//  1. a candidate gets at most 1+sampleRetries measurements, each retry
//     after round robin for backoffSlices, then twice that, and so on;
//  2. Resamples never exceeds maxResamples, every disruption (churn, or a
//     shortfall under a pick) resamples while the budget lasts, and once it
//     is spent every disruption falls back;
//  3. nothing else resamples or falls back mid-symbios: in particular a
//     window with lost reads never triggers a resample;
//  4. windows add up to the symbios budget, and each is a whole number of
//     its plan's rotations unless clamped to what remains; the run ends
//     with its last window, with no sample phase after it;
//  5. FallbackSlices counts exactly the slices run under the fallback.
//
// The round-robin controller has its own walk: it never samples, and its
// windows add up to the budget.
const (
	exploreY      = 2
	exploreZ      = 1
	exploreBudget = 16
	exploreTasks  = 4 // at the start; churn moves it between 4 and 5
	shortIPC      = 0.5
)

// probe is an adaptiveState plus what an observer of drive has tracked
// along the path that reached it: the measurements of the candidate in turn.
type probe struct {
	s        adaptiveState
	attempts int
}

// key identifies a probe for deduplication. The counts that steer nothing
// (every one but Resamples) are checked step by step, so they stay out.
func (p probe) key() probe {
	p.s.res = AdaptiveResult{Resamples: p.s.res.Resamples}
	return p
}

func startProbe() probe {
	return probe{s: adaptiveState{y: exploreY, z: exploreZ, budget: exploreBudget, tasks: exploreTasks}}
}

// answers lists what drive can report to the act s.last. A window may be
// cut to one slice by churn; a pick always reports sample IPC 1.
func answers(s adaptiveState) []event {
	a := s.last
	switch a.kind {
	case actStart:
		return []event{{}}
	case actDraw:
		return []event{{n: 1}, {n: 2}, {n: 3}}
	case actSample:
		return []event{{}, {lost: true}}
	case actPick:
		return []event{{ipc: 1}, {degenerate: true}}
	case actWindow:
		var es []event
		for _, lost := range []bool{false, true} {
			for _, ipc := range []float64{1, shortIPC} {
				es = append(es, event{slices: a.slices, lost: lost, ipc: ipc, tasks: s.tasks})
				for _, tasks := range []int{4, 5} {
					es = append(es, event{slices: a.slices, lost: lost, ipc: ipc, churned: true, tasks: tasks})
					if a.slices > 1 {
						es = append(es, event{slices: 1, lost: lost, ipc: ipc, churned: true, tasks: tasks})
					}
				}
			}
		}
		return es
	}
	return nil
}

// check steps p on e and returns the next probe, or the rule the step broke.
func check(p probe, e event) (probe, acts, error) {
	last, before := p.s.last, p.s.res
	q, a := p.s.step(e)
	n := probe{s: q, attempts: p.attempts}
	fail := func(format string, args ...any) (probe, acts, error) {
		return n, a, fmt.Errorf("after %+v answered %+v: act %+v: %s", last, e, a, fmt.Sprintf(format, args...))
	}

	// Rule 1.
	if a.kind == actSample {
		want := 0
		if last.kind == actSample && a.cand == last.cand {
			n.attempts++
			want = backoffSlices << (n.attempts - 2)
		} else {
			n.attempts = 1
		}
		if n.attempts > 1+sampleRetries {
			return fail("candidate %d measured %d times", a.cand, n.attempts)
		}
		if a.backoff != want {
			return fail("measurement %d of candidate %d backs off %d slices, want %d", n.attempts, a.cand, a.backoff, want)
		}
	}

	// Rules 2 and 3.
	if q.res.Resamples > maxResamples {
		return fail("%d resamples, budget %d", q.res.Resamples, maxResamples)
	}
	if last.kind == actWindow {
		// A disruption at the budget's end changes nothing: the run is over.
		disrupted := q.done < exploreBudget && (e.churned || !e.lost && !last.rr && e.ipc < (1-anomalyTolerance))
		switch {
		case !disrupted && (a.resample || a.fallback):
			return fail("resampled or fell back with no disruption")
		case disrupted && before.Resamples < maxResamples && !(a.kind == actDraw && a.resample):
			return fail("a disruption within the budget did not resample")
		case disrupted && before.Resamples >= maxResamples && !a.fallback:
			return fail("a disruption past the budget did not fall back")
		}
	}

	// Rule 4.
	if last.kind == actWindow && q.done-p.s.done != e.slices {
		return fail("a %d-slice window advanced the budget by %d", e.slices, q.done-p.s.done)
	}
	if last.kind != actWindow && q.done != p.s.done {
		return fail("the budget advanced without a window")
	}
	switch a.kind {
	case actWindow:
		left := exploreBudget - q.done
		z := exploreZ
		if a.rr {
			z = exploreY
		}
		rot := schedule.Rotation(q.tasks, z)
		if a.slices < 1 || a.slices > left || a.slices%rot != 0 && a.slices != left {
			return fail("window of %d slices (rotation %d, %d left)", a.slices, rot, left)
		}
	case actDone:
		if q.done != exploreBudget {
			return fail("done after %d of %d slices", q.done, exploreBudget)
		}
	}
	if q.done == exploreBudget && a.kind != actDone {
		return fail("the budget is spent")
	}

	// Rule 5.
	fb := 0
	if last.kind == actWindow && last.rr {
		fb = e.slices
	}
	if got := q.res.FallbackSlices - before.FallbackSlices; got != fb {
		return fail("FallbackSlices grew by %d, want %d", got, fb)
	}
	return n, a, nil
}

// walkStats is what the walk reached, so the test can require that it
// reached every rule's interesting case.
type walkStats struct {
	states, done                          int
	lastRetry, skipped, exhausted, lostOK int
}

func TestAdaptiveExplorer(t *testing.T) {
	var st walkStats
	seen := map[probe]bool{}
	stack := []probe{startProbe()}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[p.key()] {
			continue
		}
		seen[p.key()] = true
		st.states++
		for _, e := range answers(p.s) {
			n, a, err := check(p, e)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case a.kind == actDone:
				st.done++
			case a.retry && n.attempts == 1+sampleRetries:
				st.lastRetry++
			case a.skipped:
				st.skipped++
			case a.fallback && p.s.res.Resamples == maxResamples:
				st.exhausted++
			case p.s.last.kind == actWindow && !p.s.last.rr && e.lost && e.ipc == shortIPC && !e.churned:
				st.lostOK++
			}
			stack = append(stack, n)
		}
	}
	t.Logf("%+v", st)
	if st.done == 0 || st.lastRetry == 0 || st.skipped == 0 || st.exhausted == 0 || st.lostOK == 0 {
		t.Fatalf("the walk missed a case: %+v", st)
	}
}

// TestRoundRobinExplorer: the baseline never samples, and its windows,
// whatever churn cuts them to, add up to the budget.
func TestRoundRobinExplorer(t *testing.T) {
	var walk func(s rrState, e event, depth int)
	walk = func(s rrState, e event, depth int) {
		before := s.done
		s, a := s.step(e)
		if s.done != before+e.slices {
			t.Fatalf("a %d-slice window advanced the budget from %d to %d", e.slices, before, s.done)
		}
		switch {
		case a.kind == actDone:
			if s.done != exploreBudget {
				t.Fatalf("done after %d of %d slices", s.done, exploreBudget)
			}
			return
		case a.kind != actWindow || !a.rr:
			t.Fatalf("round robin asked for %+v", a)
		case a.slices != exploreBudget-s.done:
			t.Fatalf("window of %d slices with %d left", a.slices, exploreBudget-s.done)
		}
		walk(s, event{slices: a.slices}, depth+1)
		if a.slices > 1 && depth < 4 {
			walk(s, event{slices: 1, churned: true}, depth+1)
		}
	}
	walk(rrState{budget: exploreBudget}, event{}, 0)
}

// FuzzAdaptiveStep drives the adaptive step along the path the input's
// bytes choose among drive's answers, checking the explorer's rules.
func FuzzAdaptiveStep(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 1, 1, 1, 1, 1, 0, 3, 7, 2, 5, 5})
	f.Fuzz(func(t *testing.T, path []byte) {
		p := startProbe()
		for _, b := range path {
			es := answers(p.s)
			if len(es) == 0 {
				return
			}
			var err error
			if p, _, err = check(p, es[int(b)%len(es)]); err != nil {
				t.Fatal(err)
			}
		}
	})
}
