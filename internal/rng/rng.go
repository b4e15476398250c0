// Package rng provides deterministic, seedable pseudo-random number
// generation for the simulator.
//
// Every stochastic process in the repository — request destinations,
// rendezvous matchings, bandwidth profiles, DHT positions, coding
// coefficients — draws from a Stream so that experiments are exactly
// reproducible from a single root seed. Streams for different nodes are
// derived with SplitMix64 so they are statistically independent and may be
// used concurrently without locking (one stream per goroutine).
package rng

import "math/bits"

// splitMix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 passes BigCrush and is the recommended seeder for xoshiro.
func splitMix64(state *uint64) uint64 {
	*state += gamma
	return mix64(*state)
}

// gamma is SplitMix64's state increment.
const gamma uint64 = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive deterministically mixes a root seed with a sequence of indices —
// experiment coordinates such as (overlay, repetition) or a node id — into a
// new seed, by chaining the SplitMix64 finalizer over the indices in order.
//
// The construction absorbs one index per step (state = previous output XOR
// index, then one SplitMix64 step), so the result depends on the order of
// the indices and adjacent coordinates yield statistically independent
// seeds. It is the repository's single scheme for carving independent
// random streams out of one root seed: the parallel experiment harness
// seeds repetition (overlay, rep) jobs with Derive(seed, overlay, rep),
// and the Arranger derives per-node scatter and per-rendezvous match
// streams the same way, which is what makes its output independent of the
// worker count.
func Derive(seed uint64, idx ...uint64) uint64 {
	state := seed
	out := splitMix64(&state)
	for _, v := range idx {
		state = out ^ v
		out = splitMix64(&state)
	}
	return out
}

// Absorb extends a Derive chain by one index:
// Absorb(Derive(seed, a...), b) == Derive(seed, a..., b). A loop that derives
// one seed per unit of work under a fixed prefix computes the prefix once
// and pays a single SplitMix64 step per unit.
func Absorb(prefix, idx uint64) uint64 {
	state := prefix ^ idx
	return splitMix64(&state)
}

// Source is a deterministic stream of 64-bit values. Implementations are not
// safe for concurrent use; derive one Source per goroutine.
type Source interface {
	Uint64() uint64
	// Seed resets the source to a state derived from the given seed.
	Seed(seed uint64)
}

// Xoshiro256 implements the xoshiro256** generator by Blackman and Vigna.
// It has a 2^256-1 period and excellent statistical quality, and is the
// default generator for simulations in this repository.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator seeded from seed via SplitMix64.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	x := new(Xoshiro256)
	x.Seed(seed)
	return x
}

// Seed resets the generator state to the next four SplitMix64 outputs from
// seed. The four finalizers are independent and written out so that they
// overlap: the runtimes seed a generator per unit of work and wait on the
// seed's latency, which a loop through splitMix64's state made longer.
func (x *Xoshiro256) Seed(seed uint64) {
	z0 := seed + gamma
	z1 := z0 + gamma
	z2 := z1 + gamma
	s0, s1, s2, s3 := mix64(z0), mix64(z1), mix64(z2), mix64(z2+gamma)
	// An all-zero state is invalid; SplitMix64 cannot produce four zero
	// outputs in a row, but guard anyway for arbitrary direct state edits.
	if s0|s1|s2|s3 == 0 {
		s0 = gamma
	}
	x.s = [4]uint64{s0, s1, s2, s3}
}

// Uint64 returns the next value of the stream.
func (x *Xoshiro256) Uint64() uint64 {
	s := &x.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}
