package experiments

import (
	"context"
	"sync"

	"symbios/internal/arch"
	"symbios/internal/queueing"
)

// flight is one memoized (and possibly in-flight) computation. Waiters
// block on done; v and err are written exactly once, before done is closed.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// memo memoizes a deterministic function of its key within a process, with
// singleflight semantics: the parallel drivers fan their items out
// concurrently, so concurrent misses on one key must compute it exactly
// once, not race to store. The key must hold every input of the function.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

// do returns the memoized value for key, computing it with fn on first use.
// A concurrent second caller of the same key blocks until the first
// finishes and shares its result rather than recomputing. If the computing
// caller fails (its context aborted, say), joined waiters receive that
// error too; the failed entry is dropped, so a later caller recomputes
// under its own (presumably healthier) context.
func (c *memo[K, V]) do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if f, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.v, f.err
	}
	if c.m == nil {
		c.m = map[K]*flight[V]{}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.m[key] = f
	c.mu.Unlock()

	f.v, f.err = fn()
	close(f.done)
	if f.err != nil {
		c.mu.Lock()
		if c.m[key] == f {
			delete(c.m, key)
		}
		c.mu.Unlock()
	}
	return f.v, f.err
}

// clear discards every entry. In-flight computations are not interrupted;
// their waiters still share the in-flight result, but new callers
// recompute.
func (c *memo[K, V]) clear() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// evalKey identifies a mix evaluation.
type evalKey struct {
	label string
	sc    Scale
}

// soloKey identifies a queueing.CalibrateSolo calibration.
type soloKey struct {
	level           int
	warmup, measure uint64
}

// responseKey identifies a ResponseCompare row.
type responseKey struct {
	level  int
	qs     QueueScale
	factor float64
}

// The process's memos. Figures 1 and 3 and the warmstart study are
// different views of the same mix evaluations (as in the paper); Figure 6's
// factor-1.0 point is Figure 5's level-3 row; and every open-system row at
// one SMT level shares its solo calibration.
var (
	evalMemo     memo[evalKey, *MixEval]
	soloMemo     memo[soloKey, map[string]float64]
	responseMemo memo[responseKey, ResponseRow]
)

// EvalMixCached returns the memoized evaluation of a mix, computing it on
// first use (see memo.do for the sharing and failure rules).
func EvalMixCached(ctx context.Context, label string, sc Scale) (*MixEval, error) {
	return evalMemo.do(evalKey{label, sc}, func() (*MixEval, error) {
		return EvalMix(ctx, label, sc)
	})
}

// calibrateSolo is queueing.CalibrateSolo at an SMT level, memoized. The
// rates are shared: callers only read them.
func calibrateSolo(ctx context.Context, level int, warmup, measure uint64) (map[string]float64, error) {
	return soloMemo.do(soloKey{level, warmup, measure}, func() (map[string]float64, error) {
		return queueing.CalibrateSolo(ctx, arch.Default21264(level), warmup, measure)
	})
}

// ClearEvalCache discards every memoized mix evaluation, solo calibration
// and response row (tests use this to force recomputation).
func ClearEvalCache() {
	evalMemo.clear()
	soloMemo.clear()
	responseMemo.clear()
}
