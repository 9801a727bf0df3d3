// Package rng provides deterministic pseudo-random number generation for the
// simulator and the experiment harness.
//
// Two generators are provided:
//
//   - Stream: a stateful splitmix64 sequence, used where a conventional
//     generator is natural (schedule sampling, arrival processes).
//   - Hash: a stateless, counter-based generator. Hash(seed, counter) is a
//     pure function, which lets the synthetic instruction streams be defined
//     as pure functions of (job seed, instruction sequence number). A job
//     therefore replays identically no matter how its execution is sliced
//     across timeslices — exactly the interval semantics the weighted
//     speedup metric requires.
//
// Everything in this repository derives its randomness from these two
// primitives, so an experiment is fully reproducible from its root seed.
package rng

import "math"

// golden is the splitmix64 increment (2^64 / phi).
const golden = 0x9e3779b97f4a7c15

// mix implements the splitmix64 output function (Stafford variant 13).
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash returns a uniformly distributed 64-bit value that is a pure function
// of (seed, counter). Distinct (seed, counter) pairs produce independent
// values for all practical purposes.
func Hash(seed, counter uint64) uint64 {
	return mix(seed + golden*(counter+1))
}

// Hash2 mixes two counters with a seed, for streams indexed by a pair
// (for example, job and site).
func Hash2(seed, a, b uint64) uint64 {
	return mix(Hash(seed, a) + golden*(b+1))
}

// Float01 maps a 64-bit value to [0,1) using the top 53 bits.
func Float01(v uint64) float64 {
	return float64(v>>11) / (1 << 53)
}

// Stream is a stateful splitmix64 generator. The zero value is a valid
// generator seeded with 0; use New for an explicit seed.
type Stream struct {
	state uint64
}

// New returns a Stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Float64 returns a uniform deviate in [0,1).
func (s *Stream) Float64() float64 {
	return Float01(s.Uint64())
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free approximation is fine here:
	// the bias for n << 2^64 is negligible for simulation purposes, but we
	// use rejection sampling anyway to keep the distribution exact.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Exp returns an exponentially distributed deviate with the given mean.
// It panics if mean <= 0.
func (s *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	// Inverse CDF; guard against log(0).
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// BoundedPareto returns a deviate from the bounded Pareto distribution with
// shape alpha on [lo, hi] (inverse CDF). Heavy-tailed for small alpha, but
// the upper bound keeps every draw — and thus every simulated horizon —
// finite. It panics unless alpha > 0 and 0 < lo < hi.
func (s *Stream) BoundedPareto(alpha, lo, hi float64) float64 {
	if alpha <= 0 || lo <= 0 || hi <= lo {
		panic("rng: BoundedPareto needs alpha > 0 and 0 < lo < hi")
	}
	u := s.Float64()
	// F(x) = (1 - (lo/x)^alpha) / (1 - (lo/hi)^alpha); invert for x.
	ratio := math.Pow(lo/hi, alpha)
	x := lo * math.Pow(1-float64(u*(1-ratio)), -1/alpha)
	// Clamp fp round-off back into the support.
	return math.Min(x, hi)
}

// BoundedParetoMean returns the analytic mean of BoundedPareto(alpha, lo, hi).
// It panics on the same invalid inputs as BoundedPareto.
func BoundedParetoMean(alpha, lo, hi float64) float64 {
	if alpha <= 0 || lo <= 0 || hi <= lo {
		panic("rng: BoundedParetoMean needs alpha > 0 and 0 < lo < hi")
	}
	if alpha == 1 {
		return lo * hi / (hi - lo) * math.Log(hi/lo)
	}
	la := math.Pow(lo, alpha)
	return la / (1 - math.Pow(lo/hi, alpha)) * alpha / (alpha - 1) *
		(1/math.Pow(lo, alpha-1) - 1/math.Pow(hi, alpha-1))
}

// Perm returns a random permutation of [0,n) (Fisher–Yates).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
