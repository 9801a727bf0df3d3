package fleet

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"testing"

	"symbios/internal/integrity"
)

// The backend explorer walks every sequence of driver events over a fleet
// of two or three backends, breadth first to a fixed depth, and checks each
// step against the spec: its own account of what each machine should have
// decided. Placement and arbitration are read from a real, unstarted
// Front loaded with the walked states; arbitration verdicts and readmit
// probes go through charges and probeEvent, the functions the driver uses.

// specBackend is one backend as the spec sees it. Runs are capped one past
// the limit they are compared with, so that the walk's state space stays
// finite.
type specBackend struct {
	ejected, quarantined bool
	fails, oks           int // consecutive failed and successful probes
	charges              int // divergence observations since the last clean slate
	cleans               int // consecutive clean readmit probes
	mode                 int
}

// world is the walked fleet.
type world struct {
	st [3]backendState
	g  [3]specBackend
}

// answer is what a third replica or a readmit probe answered. answerA is
// the first party's bytes, which for a readmit probe are the served
// answer's.
type answer uint8

const (
	answerFail answer = iota
	answerShed
	answerDegraded
	answerA
	answerB
	answerOther
	answerNone // no third replica was asked
)

// out is the attempt outcome the driver would see for a.
func (a answer) out() attemptOut {
	body := []byte{"???abc"[a]}
	h := http.Header{}
	switch a {
	case answerFail:
		return attemptOut{class: classFail}
	case answerShed:
		return attemptOut{class: classShed, res: &Result{Status: http.StatusServiceUnavailable, Header: h}}
	case answerDegraded:
		h.Set("X-Brownout-Mode", "1")
	}
	return attemptOut{class: classGood, res: &Result{Status: http.StatusOK, Header: h, Body: body}}
}

var digestA, digestB = integrity.Digest([]byte("a")), integrity.Digest([]byte("b"))

type xkind uint8

const (
	xProbe    xkind = iota // a health probe of i, ok or not
	xMode                  // i advertises mode
	xMismatch              // i and j disagreed; the arbiter answered ans
	xReadmit               // quarantined i's readmit probe answered ans
)

// xevent is one event the driver can deliver.
type xevent struct {
	kind       xkind
	i, j, mode uint8
	ok         bool
	ans        answer
}

func (e xevent) String() string {
	switch e.kind {
	case xProbe:
		return fmt.Sprintf("probe(%d,%v)", e.i, e.ok)
	case xMode:
		return fmt.Sprintf("mode(%d,%d)", e.i, e.mode)
	case xMismatch:
		return fmt.Sprintf("mismatch(%d,%d,%v)", e.i, e.j, e.ans)
	}
	return fmt.Sprintf("readmit(%d,%v)", e.i, e.ans)
}

func (a answer) String() string {
	return [...]string{"fail", "shed", "degraded", "A", "B", "other", "none"}[a]
}

// explorer is one fleet configuration under exploration: n backends
// advertising modes below modes.
type explorer struct {
	n, modes int
	lim      backendLimits
	f        *Front
	keys     []string // shard keys whose ring order is not index order
}

func newExplorer(t testing.TB, n, modes int, lim backendLimits) *explorer {
	t.Helper()
	x := &explorer{n: n, modes: modes, lim: lim}
	var bases []string
	for i := 0; i < n; i++ {
		bases = append(bases, fmt.Sprintf("http://b%d", i))
	}
	f, err := New(Config{
		Backends:   bases,
		Replicas:   n,
		Health:     HealthConfig{EjectAfter: lim.ejectAfter, ReadmitAfter: lim.readmitAfter},
		Divergence: DivergenceConfig{QuarantineAfter: lim.quarantineAfter, ReadmitAfter: lim.liftAfter},
		Logger:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	x.f = f
	// Up to two keys whose replica orders differ from each other and from
	// index order, so a tie broken by anything but ring order shows.
	seen := map[string]bool{}
	for k := 0; len(x.keys) < 2 && k < 1000; k++ {
		key := fmt.Sprintf("k%d", k)
		order := fmt.Sprint(x.ring(key))
		if !seen[order] && !slices.IsSorted(x.ring(key)) {
			seen[order] = true
			x.keys = append(x.keys, key)
		}
	}
	if len(x.keys) == 0 {
		t.Fatal("no shard keys with distinct non-index ring orders")
	}
	return x
}

// ring is key's replica order as backend indices.
func (x *explorer) ring(key string) []int {
	var order []int
	for _, base := range x.f.ring.Lookup(key, x.n) {
		order = append(order, x.index(x.f.byBase[base]))
	}
	return order
}

func (x *explorer) index(b *backend) int {
	if b == nil {
		return -1
	}
	return slices.Index(x.f.backends, b)
}

func (x *explorer) start() world {
	var w world
	for i := range w.st {
		w.st[i] = backendState{lim: x.lim, healthy: true}
	}
	return w
}

// load sets the Front's backends to w's states, so that placement and
// arbitration read them.
func (x *explorer) load(w world) {
	for i, b := range x.f.backends {
		b.st = w.st[i]
	}
}

// arbiter is the Front's choice of arbiter, excluding the given backends.
func (x *explorer) arbiter(w world, exclude ...int) int {
	x.load(w)
	var bases []string
	for _, i := range exclude {
		bases = append(bases, x.f.backends[i].base)
	}
	return x.index(x.f.arbiter(bases...))
}

// enabled lists the events the driver can deliver in w: probes, modes,
// mismatches between two unquarantined backends (with every answer the
// arbiter could give, if there is one), and readmit probes of quarantined
// backends.
func (x *explorer) enabled(w world) []xevent {
	var es []xevent
	for i := uint8(0); int(i) < x.n; i++ {
		es = append(es, xevent{kind: xProbe, i: i, ok: true}, xevent{kind: xProbe, i: i})
		for m := 0; m < x.modes; m++ {
			es = append(es, xevent{kind: xMode, i: i, mode: uint8(m)})
		}
		if w.st[i].quarantined {
			for _, a := range []answer{answerFail, answerShed, answerDegraded, answerA, answerB} {
				es = append(es, xevent{kind: xReadmit, i: i, ans: a})
			}
			continue
		}
		for j := i + 1; int(j) < x.n; j++ {
			if w.st[j].quarantined {
				continue
			}
			if x.arbiter(w, int(i), int(j)) < 0 {
				es = append(es, xevent{kind: xMismatch, i: i, j: j, ans: answerNone})
				continue
			}
			for a := answerFail; a <= answerOther; a++ {
				es = append(es, xevent{kind: xMismatch, i: i, j: j, ans: a})
			}
		}
	}
	return es
}

// step delivers e to w the way the driver does, and checks the step and
// the world it leads to against the spec. It returns the notes the
// machines emitted, by backend.
func (x *explorer) step(w world, e xevent) (world, map[int]note, error) {
	next := w
	notes := map[int]note{}
	feed := func(i int, be backendEvent) {
		next.st[i], notes[i] = next.st[i].step(be)
	}
	want := map[int]note{}
	i, g := int(e.i), &next.g[e.i]
	switch e.kind {
	case xProbe:
		kind := probeFailed
		if e.ok {
			kind = probeOK
		}
		feed(i, backendEvent{kind: kind})
		if e.ok {
			g.fails, g.oks = 0, min(g.oks+1, x.lim.readmitAfter+1)
		} else {
			g.fails, g.oks = min(g.fails+1, x.lim.ejectAfter+1), 0
		}
		switch {
		case !g.ejected && g.fails == x.lim.ejectAfter:
			g.ejected, want[i] = true, noteEjected
		case g.ejected && g.oks == x.lim.readmitAfter:
			g.ejected, want[i] = false, noteReadmitted
		}
	case xMode:
		feed(i, backendEvent{kind: advertised, mode: int(e.mode)})
		g.mode = int(e.mode)
	case xMismatch:
		// Rule 3: the odd one out, nobody when inconclusive, both with no
		// third replica or when all three disagree.
		var third *attemptOut
		if e.ans != answerNone {
			out := e.ans.out()
			third = &out
		}
		spec := map[answer][2]bool{answerA: {false, true}, answerB: {true, false}, answerOther: {true, true}, answerNone: {true, true}}[e.ans]
		got := charges(third, digestA, digestB)
		if got != spec {
			return next, notes, fmt.Errorf("rule 3: charged %v, want %v", got, spec)
		}
		for k, party := range [2]int{i, int(e.j)} {
			if got[k] {
				feed(party, backendEvent{kind: diverged})
				want[party] = x.charge(&next.g[party])
			}
		}
	case xReadmit:
		be, ok := probeEvent(e.ans.out(), digestA)
		if ok {
			feed(i, be)
		}
		// Rule 4: clean probes lift after exactly liftAfter in a row; a
		// divergent one recharges and resets the run; anything else is no
		// event.
		switch e.ans {
		case answerA:
			g.cleans++
			want[i] = noteCleanProbe
			if g.cleans == x.lim.liftAfter {
				g.quarantined, g.charges, g.cleans, want[i] = false, 0, 0, noteLifted
			}
		case answerB:
			want[i] = x.charge(g)
		}
	}
	for b := 0; b < x.n; b++ {
		if notes[b] != want[b] {
			rule := [...]string{xProbe: "rule 2", xMode: "mode", xMismatch: "rule 3", xReadmit: "rule 4"}[e.kind]
			return next, notes, fmt.Errorf("%s: backend %d noted %v, want %v", rule, b, notes[b], want[b])
		}
		if _, stepped := notes[b]; !stepped && next.st[b] != w.st[b] {
			return next, notes, fmt.Errorf("backend %d changed without an event", b)
		}
	}
	return next, notes, nil
}

// charge is the spec's account of one divergence observation.
func (x *explorer) charge(g *specBackend) note {
	g.charges = min(g.charges+1, x.lim.quarantineAfter+1)
	g.cleans = 0
	if !g.quarantined && g.charges == x.lim.quarantineAfter {
		g.quarantined = true
		return noteQuarantined
	}
	return noteDiverged
}

// check holds w's machine states to the spec and w's placement and
// arbitration to rules 1, 2 and 5.
func (x *explorer) check(w world) error {
	for i := 0; i < x.n; i++ {
		s, g := w.st[i], w.g[i]
		switch {
		case s.healthy == g.ejected:
			return fmt.Errorf("rule 2: backend %d healthy=%v, want %v", i, s.healthy, !g.ejected)
		case s.quarantined != g.quarantined:
			return fmt.Errorf("backend %d quarantined=%v, want %v", i, s.quarantined, g.quarantined)
		case s.quarantined && s.cleanProbes != g.cleans:
			return fmt.Errorf("rule 4: backend %d at %d clean probes, want %d", i, s.cleanProbes, g.cleans)
		case s.mode != g.mode:
			return fmt.Errorf("backend %d mode %d, want %d", i, s.mode, g.mode)
		}
	}
	// Rules 1 and 5: candidates are the unquarantined replicas, the healthy
	// first by ascending mode, then the ejected, ties in ring order.
	rank := func(i int) int {
		if w.g[i].ejected {
			return 3
		}
		return w.g[i].mode
	}
	for _, key := range x.keys {
		x.load(w)
		var got []int
		for _, b := range x.f.candidates(key) {
			got = append(got, x.index(b))
		}
		var spec []int
		for _, i := range x.ring(key) {
			if !w.g[i].quarantined {
				spec = append(spec, i)
			}
		}
		slices.SortStableFunc(spec, func(a, b int) int { return rank(a) - rank(b) })
		if !slices.Equal(got, spec) {
			return fmt.Errorf("rules 1/5: candidates(%s) = %v, want %v (ring %v)", key, got, spec, x.ring(key))
		}
	}
	// Rule 1: the arbiter is healthy, unquarantined and no party, and there
	// is one whenever such a backend exists.
	for _, ex := range [][]int{nil, {0}, {1}, {0, 1}, {1, 2}, {0, 2}} {
		if slices.Contains(ex, x.n) || slices.Contains(ex, 2) && x.n < 3 {
			continue
		}
		a := x.arbiter(w, ex...)
		fit := func(i int) bool { return !w.g[i].ejected && !w.g[i].quarantined && !slices.Contains(ex, i) }
		if a >= 0 && !fit(a) {
			return fmt.Errorf("rule 1: arbiter %d excluding %v (spec %+v)", a, ex, w.g[a])
		}
		if a < 0 && slices.ContainsFunc([]int{0, 1, 2}[:x.n], fit) {
			return fmt.Errorf("rule 1: no arbiter excluding %v, though one is fit", ex)
		}
	}
	return nil
}

// canon is w without what decides nothing: the lifetime counts, a
// quarantined machine's divergences (reset on lift) and the spec's counts
// it does not read in the state they are in.
func canon(w world) world {
	for i := range w.st {
		s, g := &w.st[i], &w.g[i]
		s.ejections, s.readmits, s.quarantines, s.qReadmits, s.divergesSeen = 0, 0, 0, 0, 0
		if s.quarantined {
			s.divergences = min(s.divergences, s.lim.quarantineAfter)
			g.charges = 0
		}
		if g.ejected {
			g.fails = 0
		} else {
			g.oks = 0
		}
	}
	return w
}

// explore walks every event sequence up to depth events long, and fails at
// the first broken rule with the path that broke it. It returns how many
// worlds it visited and how often each note was emitted.
func (x *explorer) explore(t *testing.T, depth int) (int, map[note]int) {
	t.Helper()
	type node struct {
		w    world
		path []xevent
	}
	start := x.start()
	seen := map[world]bool{canon(start): true}
	level := []node{{w: start}}
	tally := map[note]int{}
	for d := 0; len(level) > 0; d++ {
		var next []node
		for _, nd := range level {
			if err := x.check(nd.w); err != nil {
				t.Fatalf("n=%d %+v: %v after %v", x.n, x.lim, err, nd.path)
			}
			if d == depth {
				continue
			}
			for _, e := range x.enabled(nd.w) {
				w, notes, err := x.step(nd.w, e)
				if err != nil {
					t.Fatalf("n=%d %+v: %v after %v", x.n, x.lim, err, append(nd.path, e))
				}
				for _, n := range notes {
					tally[n]++
				}
				if c := canon(w); !seen[c] {
					seen[c] = true
					next = append(next, node{w: c, path: append(slices.Clip(nd.path), e)})
				}
			}
		}
		level = next
	}
	return len(seen), tally
}

// TestBackendExplorer checks the backend machine, and the placement and
// arbitration that read it, over every event sequence twelve events deep:
// two backends advertising three modes and three advertising two, each
// under two sets of limits.
func TestBackendExplorer(t *testing.T) {
	for _, c := range []struct{ n, modes int }{{2, 3}, {3, 2}} {
		for _, lim := range []backendLimits{{2, 3, 2, 3}, {3, 2, 3, 2}} {
			x := newExplorer(t, c.n, c.modes, lim)
			worlds, tally := x.explore(t, 12)
			t.Logf("n=%d %+v: %d worlds, notes %v", c.n, lim, worlds, tally)
			for nt := noteEjected; nt <= noteLifted; nt++ {
				if tally[nt] == 0 {
					t.Errorf("n=%d %+v: the walk never emitted %v", c.n, lim, nt)
				}
			}
		}
	}
}

// FuzzBackendStep feeds random event scripts to the machines: the first
// byte picks two or three backends and how many modes (1–3) they
// advertise, the second the four limits (1–3 each), and every later byte
// one of the
// events enabled at that point. Every step must keep the explorer's rules.
// The seed corpus is in testdata/fuzz/FuzzBackendStep.
func FuzzBackendStep(f *testing.F) {
	explorers := map[[2]byte]*explorer{}
	for b0 := 0; b0 < 6; b0++ {
		for b1 := 0; b1 < 81; b1++ {
			lim := backendLimits{1 + b1%3, 1 + b1/3%3, 1 + b1/9%3, 1 + b1/27}
			explorers[[2]byte{byte(b0), byte(b1)}] = newExplorer(f, 2+b0%2, 1+b0/2, lim)
		}
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		x := explorers[[2]byte{script[0] % 6, script[1] % 81}]
		w := x.start()
		var path []xevent
		for _, b := range script[2:] {
			es := x.enabled(w)
			e := es[int(b)%len(es)]
			path = append(path, e)
			var err error
			if w, _, err = x.step(w, e); err == nil {
				err = x.check(w)
			}
			if err != nil {
				t.Fatalf("n=%d %+v: %v after %v", x.n, x.lim, err, path)
			}
		}
	})
}

func (n note) String() string {
	return [...]string{"none", "ejected", "readmitted", "diverged", "quarantined", "clean-probe", "lifted"}[n]
}
