package fleet

import (
	"log"
	"sync"

	"symbios/internal/obs"
	"symbios/internal/resilience"
)

// Whether a backend may answer at all is one pure transition function,
// backendState.step. Its driver turns probes, arbitration charges, readmit
// probes and relayed X-Brownout-Mode headers into events, and feed steps
// the machine under the backend's one lock and emits the step's log line
// and counters. Everything else only reads the state. DESIGN §13
// tabulates state × event → acts.

// candidacy is a backend's verdict: what placement may use it for.
type candidacy uint8

const (
	candidate candidacy = iota // client traffic, hedges, arbitration
	// lastResort is an ejected backend, tried after every candidate: with
	// every replica ejected, trying one anyway beats refusing outright.
	lastResort
	// probeOnly is a quarantined backend: it gets readmit probes only. A
	// diverging replica answers promptly and convincingly, just wrongly.
	probeOnly
)

// backendEventKind names one input to a backend's machine.
type backendEventKind uint8

const (
	probeOK backendEventKind = iota
	probeFailed
	diverged   // arbitration charged it, or its readmit probe disagreed
	cleanProbe // its readmit probe agreed with the served answer
	advertised // a reply advertised brownout mode backendEvent.mode
)

type backendEvent struct {
	kind backendEventKind
	mode int
}

// note is the log line (with its counters) a step asks the driver for.
type note uint8

const (
	noteNone note = iota
	noteEjected
	noteReadmitted
	noteDiverged
	noteQuarantined
	noteCleanProbe
	noteLifted
)

// backendLimits are EjectAfter, ReadmitAfter, QuarantineAfter and
// Divergence.ReadmitAfter.
type backendLimits struct{ ejectAfter, readmitAfter, quarantineAfter, liftAfter int }

// backendState is everything candidacy is decided by, plus the lifetime
// counts /statz reports.
type backendState struct {
	lim         backendLimits
	healthy     bool
	streak      int // consecutive probes disagreeing with healthy
	quarantined bool
	divergences int // observations since the last clean slate
	cleanProbes int // consecutive clean readmit probes
	mode        int // last advertised brownout mode; 0 is full service

	ejections, readmits, quarantines, qReadmits, divergesSeen uint64
}

func (s backendState) verdict() candidacy {
	switch {
	case s.quarantined:
		return probeOnly
	case !s.healthy:
		return lastResort
	}
	return candidate
}

// step is the transition function; its acts are the note and verdict().
func (s backendState) step(e backendEvent) (backendState, note) {
	n := noteNone
	switch e.kind {
	case probeOK, probeFailed:
		if (e.kind == probeOK) == s.healthy {
			s.streak = 0
			break
		}
		s.streak++
		switch {
		case s.healthy && s.streak == s.lim.ejectAfter:
			s.healthy, s.streak, n = false, 0, noteEjected
			s.ejections++
		case !s.healthy && s.streak == s.lim.readmitAfter:
			s.healthy, s.streak, n = true, 0, noteReadmitted
			s.readmits++
		}
	case diverged:
		s.divergences++
		s.divergesSeen++
		s.cleanProbes, n = 0, noteDiverged
		if !s.quarantined && s.divergences == s.lim.quarantineAfter {
			s.quarantined, n = true, noteQuarantined
			s.quarantines++
		}
	case cleanProbe:
		if !s.quarantined {
			break // a probe overtaken by another audit's lift
		}
		s.cleanProbes++
		n = noteCleanProbe
		if s.cleanProbes == s.lim.liftAfter {
			s.quarantined, s.divergences, s.cleanProbes, n = false, 0, 0, noteLifted
			s.qReadmits++
		}
	case advertised:
		s.mode = e.mode
	}
	return s, n
}

// placeKey is what placement reads of a backend's state.
type placeKey struct {
	verdict candidacy
	mode    int
}

// before reports whether k is placed ahead of o: candidates before the
// ejected, and candidates by ascending mode, so a browned-out backend keeps
// serving failover and hedge traffic but stops being anyone's first choice.
func (k placeKey) before(o placeKey) bool {
	if k.verdict != o.verdict {
		return k.verdict < o.verdict
	}
	return k.verdict == candidate && k.mode < o.mode
}

// backend is one sosd instance plus its guard rails.
type backend struct {
	base    string
	breaker *resilience.Breaker
	budget  *resilience.Budget

	mu sync.Mutex
	st backendState // written only by feed

	obsEjections, obsFailovers, obsHedgeWins, obsRequests  *obs.Counter
	obsFailures, obsIntegrity, obsDiverges, obsQuarantines *obs.Counter
}

func (b *backend) state() backendState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}

// feed steps the machine by e and emits the step's line and counters.
func (b *backend) feed(e backendEvent, logger *log.Logger) {
	b.mu.Lock()
	s, n := b.st.step(e)
	b.st = s
	b.mu.Unlock()
	switch n {
	case noteEjected:
		b.obsEjections.Inc()
		logger.Printf("backend %s ejected", b.base)
	case noteReadmitted:
		logger.Printf("backend %s readmitted", b.base)
	case noteDiverged:
		b.obsDiverges.Inc()
		logger.Printf("backend %s divergence observation %d/%d", b.base, s.divergences, s.lim.quarantineAfter)
	case noteQuarantined:
		b.obsDiverges.Inc()
		b.obsQuarantines.Inc()
		logger.Printf("backend %s quarantined after %d divergence observations", b.base, s.divergences)
	case noteCleanProbe:
		logger.Printf("backend %s clean quarantine probe %d/%d", b.base, s.cleanProbes, s.lim.liftAfter)
	case noteLifted:
		logger.Printf("backend %s readmitted from quarantine", b.base)
	}
}
