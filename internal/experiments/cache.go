package experiments

import (
	"context"
	"fmt"
	"sync"
)

// evalFlight is one memoized (and possibly in-flight) mix evaluation.
// Waiters block on done; ev/err are written exactly once, before done is
// closed.
type evalFlight struct {
	done chan struct{}
	ev   *MixEval
	err  error
}

// evalCache memoizes MixEval results within a process, with singleflight
// semantics: Figures 1 and 3 and the warmstart study are different views of
// the same underlying experiments (as in the paper), and the parallel
// drivers fan their mixes out concurrently — concurrent misses on one key
// must compute the evaluation exactly once, not race to store. Entries are
// deterministic functions of their key.
var (
	evalMu    sync.Mutex
	evalCache = map[string]*evalFlight{}
)

// cacheKey identifies an evaluation.
func cacheKey(label string, sc Scale) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		label, sc.Slice, sc.LittleDivisor, sc.SymbiosCycles, sc.WarmupCycles,
		sc.CalibWarmup, sc.CalibMeasure, sc.SampleRounds, sc.MaxSamples, sc.Seed)
}

// EvalMixCached returns the memoized evaluation of a mix, computing it on
// first use. A concurrent second caller of the same key blocks until the
// first finishes and shares its result rather than recomputing. If the
// computing caller's context aborts, joined waiters receive that abort
// error too; the failed entry is dropped, so a later caller recomputes
// under its own (presumably healthier) context.
func EvalMixCached(ctx context.Context, label string, sc Scale) (*MixEval, error) {
	key := cacheKey(label, sc)
	evalMu.Lock()
	if f, ok := evalCache[key]; ok {
		evalMu.Unlock()
		<-f.done
		return f.ev, f.err
	}
	f := &evalFlight{done: make(chan struct{})}
	evalCache[key] = f
	evalMu.Unlock()

	f.ev, f.err = EvalMix(ctx, label, sc)
	close(f.done)
	if f.err != nil {
		// Do not cache failures: a later caller may run under conditions
		// that succeed (and joined waiters already got this attempt's
		// error).
		evalMu.Lock()
		if evalCache[key] == f {
			delete(evalCache, key)
		}
		evalMu.Unlock()
	}
	return f.ev, f.err
}

// ClearEvalCache discards all memoized evaluations (tests use this to force
// recomputation). In-flight computations are not interrupted; their waiters
// still share the in-flight result, but new callers recompute.
func ClearEvalCache() {
	evalMu.Lock()
	evalCache = map[string]*evalFlight{}
	evalMu.Unlock()
}
