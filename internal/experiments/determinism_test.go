package experiments

import (
	"context"
	"reflect"
	"testing"

	"symbios/internal/parallel"
)

// withWorkers runs fn under a fixed global worker count, restoring the
// previous setting afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := parallel.SetDefaultWorkers(n)
	defer parallel.SetDefaultWorkers(prev)
	fn()
}

// TestPairwiseDeterministicAcrossWorkers is the parallel layer's
// acceptance test on a real driver: the pairwise symbiosis matrix must be
// byte-identical at workers=1 and workers=8. Run under -race this also
// exercises the fan-out for data races.
func TestPairwiseDeterministicAcrossWorkers(t *testing.T) {
	sc := QuickScale()
	sc.CalibWarmup, sc.CalibMeasure = 200_000, 100_000
	sc.WarmupCycles, sc.SymbiosCycles = 200_000, 400_000
	names := []string{"FP", "GCC", "IS", "CG"}

	var serial, fanned *PairTable
	var err1, err8 error
	withWorkers(t, 1, func() { serial, err1 = Pairwise(context.Background(), sc, names) })
	if err1 != nil {
		t.Fatal(err1)
	}
	withWorkers(t, 8, func() { fanned, err8 = Pairwise(context.Background(), sc, names) })
	if err8 != nil {
		t.Fatal(err8)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("pairwise matrix differs between workers=1 and workers=8:\n%v\nvs\n%v", serial.WS, fanned.WS)
	}
}

// TestShootoutDeterministicAcrossWorkers runs the predictor shootout at
// workers=1 and workers=8 and asserts identical rows. The eval cache is
// cleared between runs so the second run actually recomputes under the
// other worker count (rather than replaying memoized results).
func TestShootoutDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("shootout sweep is long for -short")
	}
	sc := QuickScale()
	// Shrunken budgets: the test proves worker-count invariance, not
	// simulation fidelity, and it evaluates both mixes twice.
	sc.CalibWarmup, sc.CalibMeasure = 200_000, 100_000
	sc.WarmupCycles, sc.SymbiosCycles = 200_000, 400_000
	labels := []string{"Jsb(4,2,2)", "Jsb(6,3,3)"}

	var serial, fanned []ShootoutRow
	var err1, err8 error
	withWorkers(t, 1, func() {
		ClearEvalCache()
		serial, err1 = PredictorShootout(context.Background(), sc, labels)
	})
	if err1 != nil {
		t.Fatal(err1)
	}
	withWorkers(t, 8, func() {
		ClearEvalCache()
		fanned, err8 = PredictorShootout(context.Background(), sc, labels)
	})
	if err8 != nil {
		t.Fatal(err8)
	}
	ClearEvalCache() // leave no quick-scale entries for other tests
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("shootout rows differ between workers=1 and workers=8:\n%v\nvs\n%v", serial, fanned)
	}
}

// TestEvalMixCachedSingleflight checks that concurrent misses on one key
// compute the evaluation exactly once and all callers share the same
// result object.
func TestEvalMixCachedSingleflight(t *testing.T) {
	sc := QuickScale()
	sc.SymbiosCycles = 400_000
	sc.WarmupCycles = 200_000
	sc.CalibWarmup, sc.CalibMeasure = 200_000, 100_000
	sc.Seed = 77 // private key: no other test shares this cache entry
	ClearEvalCache()
	defer ClearEvalCache()

	const callers = 8
	evs, err := parallel.Map(context.Background(), make([]int, callers), parallel.Options{Workers: callers},
		func(_ int, _ int) (*MixEval, error) {
			return EvalMixCached(context.Background(), "Jsb(4,2,2)", sc)
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < callers; i++ {
		if evs[i] != evs[0] {
			t.Fatalf("caller %d got a different *MixEval than caller 0: the evaluation ran more than once", i)
		}
	}
}
