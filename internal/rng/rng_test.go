package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// TestHashPure verifies that Hash is a pure function and that distinct
// counters give distinct values (no trivial collisions).
func TestHashPure(t *testing.T) {
	f := func(seed, counter uint64) bool {
		return Hash(seed, counter) == Hash(seed, counter)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10_000; i++ {
		v := Hash(42, i)
		if seen[v] {
			t.Fatalf("collision at counter %d", i)
		}
		seen[v] = true
	}
}

// TestHash2Distinct checks Hash2 separates both counter dimensions.
func TestHash2Distinct(t *testing.T) {
	if Hash2(1, 2, 3) == Hash2(1, 3, 2) {
		t.Error("Hash2 symmetric in (a,b); dimensions collapse")
	}
	if Hash2(1, 2, 3) != Hash2(1, 2, 3) {
		t.Error("Hash2 not deterministic")
	}
}

// TestFloat01Range is a property test: Float01 maps into [0,1).
func TestFloat01Range(t *testing.T) {
	f := func(v uint64) bool {
		x := Float01(v)
		return x >= 0 && x < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStreamUniformity checks first and second moments of the uniform
// stream.
func TestStreamUniformity(t *testing.T) {
	s := New(7)
	const n = 200_000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Float64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %.4f, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("variance %.4f, want ~%.4f", variance, 1.0/12)
	}
}

// TestIntnBounds is a property test: Intn stays in [0,n).
func TestIntnBounds(t *testing.T) {
	s := New(3)
	f := func(n uint16) bool {
		if n == 0 {
			return true
		}
		v := s.Intn(int(n))
		return v >= 0 && v < int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntnPanics ensures invalid arguments are rejected loudly.
func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// TestIntnUniform checks the distribution over a small modulus.
func TestIntnUniform(t *testing.T) {
	s := New(11)
	counts := make([]int, 7)
	const n = 140_000
	for i := 0; i < n; i++ {
		counts[s.Intn(7)]++
	}
	want := n / 7
	for v, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("value %d: count %d, want ~%d", v, c, want)
		}
	}
}

// TestExpMean checks the exponential deviate's mean and positivity.
func TestExpMean(t *testing.T) {
	s := New(5)
	const mean = 250.0
	const n = 100_000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := s.Exp(mean)
		if x < 0 {
			t.Fatalf("negative deviate %f", x)
		}
		sum += x
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Errorf("mean %.2f, want ~%.2f", got, mean)
	}
}

// TestExpPanics ensures a non-positive mean is rejected.
func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

// TestBoundedParetoSupport checks every deviate stays inside [lo, hi] and
// that the empirical mean tracks the analytic BoundedParetoMean.
func TestBoundedParetoSupport(t *testing.T) {
	s := New(11)
	const alpha, lo, hi = 1.5, 100.0, 100_000.0
	const n = 200_000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := s.BoundedPareto(alpha, lo, hi)
		if x < lo || x > hi {
			t.Fatalf("deviate %f outside [%f, %f]", x, lo, hi)
		}
		sum += x
	}
	want := BoundedParetoMean(alpha, lo, hi)
	got := sum / n
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("mean %.2f, want ~%.2f", got, want)
	}
}

// TestBoundedParetoMeanAlphaOne covers the logarithmic alpha==1 branch.
func TestBoundedParetoMeanAlphaOne(t *testing.T) {
	s := New(12)
	const lo, hi = 10.0, 10_000.0
	const n = 400_000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.BoundedPareto(1, lo, hi)
	}
	want := BoundedParetoMean(1, lo, hi)
	if got := sum / n; math.Abs(got-want)/want > 0.05 {
		t.Errorf("mean %.2f, want ~%.2f", got, want)
	}
}

// TestBoundedParetoPanics ensures invalid shapes and supports are rejected.
func TestBoundedParetoPanics(t *testing.T) {
	cases := []struct{ alpha, lo, hi float64 }{
		{0, 1, 2}, {-1, 1, 2}, {1, 0, 2}, {1, 2, 2}, {1, 3, 2},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BoundedPareto(%v,%v,%v) did not panic", c.alpha, c.lo, c.hi)
				}
			}()
			New(1).BoundedPareto(c.alpha, c.lo, c.hi)
		}()
	}
}

// TestPermValid is a property test: Perm returns a permutation.
func TestPermValid(t *testing.T) {
	s := New(9)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		p := s.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStreamDeterminism: identical seeds give identical sequences.
func TestStreamDeterminism(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}
