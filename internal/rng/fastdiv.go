package rng

import (
	"math"
	"math/bits"
)

// Divisor is a precomputed reciprocal for exact division and remainder by a
// runtime-constant divisor, replacing the hardware divide (~30+ cycles) with
// a few wide multiplies. The trace generator divides by per-stream constants
// (working-set sizes, block lengths, site counts) on every instruction, so
// these show up directly in end-to-end simulation throughput.
//
// The method is the 2N-bit fractional reciprocal of Lemire, Kaser and Kurz
// ("Faster remainder by direct computation", 2019) instantiated at N=64:
// with c = ⌊(2¹²⁸−1)/d⌋ + 1,
//
//	n/d = ⌊c·n / 2¹²⁸⌋  and  n%d = ⌊(c·n mod 2¹²⁸)·d / 2¹²⁸⌋
//
// exactly, for every n < 2⁶⁴ and 2 ≤ d < 2⁶⁴. Both identities are
// exhaustively cross-checked against the hardware divide in fastdiv_test.go.
type Divisor struct {
	d        uint64
	cHi, cLo uint64 // ⌈2¹²⁸/d⌉
}

// NewDivisor precomputes the reciprocal of d. d must be nonzero.
func NewDivisor(d uint64) Divisor {
	if d == 0 {
		panic("rng: zero divisor")
	}
	if d == 1 {
		// ⌈2¹²⁸/1⌉ does not fit; Div and Mod special-case it.
		return Divisor{d: 1}
	}
	// c = ⌊(2¹²⁸−1)/d⌋ + 1 via 128/64 long division.
	qHi := ^uint64(0) / d
	r1 := ^uint64(0) % d
	qLo, _ := bits.Div64(r1, ^uint64(0), d)
	cLo, carry := bits.Add64(qLo, 1, 0)
	return Divisor{d: d, cHi: qHi + carry, cLo: cLo}
}

// Div returns n / v.d.
func (v Divisor) Div(n uint64) uint64 {
	if v.cHi == 0 { // d == 1
		return n
	}
	ph, pl := bits.Mul64(v.cHi, n)
	lh, _ := bits.Mul64(v.cLo, n)
	_, carry := bits.Add64(pl, lh, 0)
	return ph + carry
}

// Mod returns n % v.d.
func (v Divisor) Mod(n uint64) uint64 {
	if v.cHi == 0 { // d == 1
		return 0
	}
	// frac = c·n mod 2¹²⁸
	fHi, fLo := bits.Mul64(v.cLo, n)
	fHi += v.cHi * n
	// ⌊frac·d / 2¹²⁸⌋
	ph, pl := bits.Mul64(fHi, v.d)
	lh, _ := bits.Mul64(fLo, v.d)
	_, carry := bits.Add64(pl, lh, 0)
	return ph + carry
}

// Threshold converts a probability p into an integer draw bound such that
//
//	Float01(v) < p  ⟺  v>>11 < Threshold(p)
//
// for every v. Float01(v) = float64(v>>11)·2⁻⁵³ where both the conversion
// (53-bit integer) and the scaling (power of two) are exact, so the float
// comparison is the real-number comparison v>>11 < p·2⁵³, which for
// integers is v>>11 < ⌈p·2⁵³⌉. Hot paths drawing against fixed
// probabilities precompute the bound once and compare integers.
func Threshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}
