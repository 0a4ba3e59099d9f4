// Package rng provides the deterministic pseudo-random machinery used by
// every Monte-Carlo stage of the SER flow: a small, fast 64-bit generator
// with reproducible substreams (so parallel workers draw independent,
// seed-stable sequences), plus the variate and direction samplers the
// transport and characterization layers need.
//
// The generator is SplitMix64 followed by an xorshift* scramble — adequate
// statistical quality for radiation-transport MC, tiny state, and trivially
// forkable. math/rand is deliberately not used so that substream forking is
// explicit and stable across Go releases.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers.
// The zero value is NOT usable; construct with New or Fork.
type Source struct {
	state uint64
	gamma uint64 // odd increment; distinct gammas give distinct streams

	spare     float64 // cached second Box–Muller variate
	haveSpare bool
}

const goldenGamma = 0x9E3779B97F4A7C15

// New returns a Source seeded with seed, using the canonical stream.
func New(seed uint64) *Source {
	return &Source{state: mix(seed), gamma: goldenGamma}
}

// Fork derives an independent substream from s. Forked streams are
// reproducible: forking the same parent in the same order always yields the
// same children. The child's increment is derived from the parent draw and
// forced odd so the underlying Weyl sequence is full-period.
func (s *Source) Fork() *Source {
	st := s.Uint64()
	g := mixGamma(s.Uint64())
	return &Source{state: st, gamma: g}
}

// ForkN returns n independent substreams.
func (s *Source) ForkN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Fork()
	}
	return out
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func mixGamma(z uint64) uint64 {
	z = mix(z) | 1 // must be odd
	// Avoid weak gammas with too-regular bit patterns (per SplitMix64 paper).
	if popcount(z^(z>>1)) < 24 {
		z ^= 0xAAAAAAAAAAAAAAAA
	}
	return z
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += s.gamma
	return mix(s.state)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift rejection-free mapping; bias is negligible for n << 2^64.
	return int(s.Uint64() % uint64(n))
}

// Normal returns a standard normal variate (polar Box–Muller, cached pair).
func (s *Source) Normal() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		r2 := u*u + v*v
		if r2 >= 1 || r2 == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(r2) / r2)
		s.spare = v * f
		s.haveSpare = true
		return u * f
	}
}

// NormalAt returns a normal variate with the given mean and standard
// deviation.
func (s *Source) NormalAt(mean, sigma float64) float64 {
	return mean + sigma*s.Normal()
}
