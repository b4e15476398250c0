package rng

import "math/bits"

// Stream wraps a Source with the sampling helpers used throughout the
// simulator. A Stream is not safe for concurrent use; give each goroutine
// or unit of work one of its own, seeded from its coordinates by Derive.
type Stream struct {
	src Source
}

// New returns a Stream over a fresh xoshiro256** generator seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{src: NewXoshiro256(seed)}
}

// NewWithSource returns a Stream drawing from the given source.
func NewWithSource(src Source) *Stream {
	return &Stream{src: src}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Stream) Uint64() uint64 { return s.src.Uint64() }

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method, which avoids modulo bias. n must be positive.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.src.Uint64() & (n - 1)
	}
	// Lemire's method: multiply a 64-bit draw by n and keep the high word,
	// rejecting the draws whose low word falls below 2^64 mod n. That
	// threshold is below n, so it is computed only when the low word is.
	hi, lo := bits.Mul64(s.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.src.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). n must be positive.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.src.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1], matching the paper's ring
// domain for DHT positions.
func (s *Stream) Float64Open() float64 {
	return 1 - s.Float64()
}

// Bool returns true with probability 1/2.
func (s *Stream) Bool() bool { return s.src.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
