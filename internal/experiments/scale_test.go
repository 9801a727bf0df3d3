package experiments

import (
	"context"
	"testing"

	"symbios/internal/workload"
)

// TestSliceFor: big mixes get the full slice, little mixes the divided one.
func TestSliceFor(t *testing.T) {
	sc := DefaultScale()
	big := workload.MustMix("Jsb(6,3,3)")
	little := workload.MustMix("Jsl(6,3,1)")
	if got := sc.sliceFor(big); got != sc.Slice {
		t.Errorf("big slice %d", got)
	}
	if got := sc.sliceFor(little); got != sc.Slice/sc.LittleDivisor {
		t.Errorf("little slice %d", got)
	}
	sc.LittleDivisor = 0
	if got := sc.sliceFor(little); got != sc.Slice/4 {
		t.Errorf("zero divisor fallback: %d", got)
	}
}

// TestSymbiosSlices: the budget rounds down to whole rotations but never
// below one rotation.
func TestSymbiosSlices(t *testing.T) {
	sc := Scale{SymbiosCycles: 1_000_000}
	if got := sc.symbiosSlices(100_000, 3); got != 9 {
		t.Errorf("rounding: got %d, want 9", got)
	}
	if got := sc.symbiosSlices(100_000, 2); got != 10 {
		t.Errorf("exact: got %d, want 10", got)
	}
	if got := sc.symbiosSlices(1_000_000, 4); got != 4 {
		t.Errorf("minimum: got %d, want one rotation (4)", got)
	}
}

// TestScalesPreserveRatios: every preset keeps the paper's ordering of
// budgets (warmup < symbios; calibration intervals positive).
func TestScalesPreserveRatios(t *testing.T) {
	for _, sc := range []Scale{QuickScale(), DefaultScale(), PaperScale()} {
		if sc.Slice == 0 || sc.SymbiosCycles == 0 || sc.CalibWarmup == 0 || sc.CalibMeasure == 0 {
			t.Errorf("zero budget in %+v", sc)
		}
		if sc.SymbiosCycles < 10*sc.Slice {
			t.Errorf("symbios phase shorter than 10 slices: %+v", sc)
		}
		if sc.MaxSamples != 10 {
			t.Errorf("MaxSamples %d, paper uses 10", sc.MaxSamples)
		}
	}
	if PaperScale().Slice != 5_000_000 {
		t.Error("paper slice is 5M cycles")
	}
	if PaperScale().SymbiosCycles != 2_000_000_000 {
		t.Error("paper symbios phase is 2B cycles")
	}
}

// TestEvalCache: the memoized evaluation returns the identical object and
// can be cleared.
func TestEvalCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sc := QuickScale()
	sc.Seed = 123 // private seed: do not pollute other tests' cache entries
	a, err := EvalMixCached(context.Background(), "Jsb(4,2,2)", sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvalMixCached(context.Background(), "Jsb(4,2,2)", sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache returned a different object")
	}
	ClearEvalCache()
	c, err := EvalMixCached(context.Background(), "Jsb(4,2,2)", sc)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("cache not cleared")
	}
}
