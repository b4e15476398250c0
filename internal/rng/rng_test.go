package rng

import (
	"math"
	"testing"
)

func TestXoshiroDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d differs: %d vs %d", i, av, bv)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestXoshiroZeroSeedValid(t *testing.T) {
	s := New(0)
	var orAll uint64
	for i := 0; i < 64; i++ {
		orAll |= s.Uint64()
	}
	if orAll == 0 {
		t.Fatal("zero seed produced an all-zero stream")
	}
}

// TestSeedIsSplitMix64 pins Seed's written-out expansion against its
// definition: the state is the next four outputs of a SplitMix64 sequence
// started at the seed.
func TestSeedIsSplitMix64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63, ^uint64(0), 0x9e3779b97f4a7c15} {
		var x Xoshiro256
		x.Seed(seed)
		sm := seed
		for i, got := range x.s {
			if want := splitMix64(&sm); got != want {
				t.Fatalf("seed %#x: state word %d is %#x, want %#x", seed, i, got, want)
			}
		}
	}
}

func TestSeedResets(t *testing.T) {
	src := NewXoshiro256(9)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = src.Uint64()
	}
	src.Seed(9)
	for i := range first {
		if got := src.Uint64(); got != first[i] {
			t.Fatalf("re-seeded stream diverged at %d", i)
		}
	}
}

// derivedStreams returns n streams, stream g seeded Derive(seed, g): the
// way every unit of work in the repository gets its own randomness.
func derivedStreams(seed uint64, n int) []*Stream {
	out := make([]*Stream, n)
	for g := range out {
		out[g] = New(Derive(seed, uint64(g)))
	}
	return out
}

func TestDerivedStreamsIndependentAndDeterministic(t *testing.T) {
	a := derivedStreams(3, 8)
	b := derivedStreams(3, 8)
	for i := range a {
		for d := 0; d < 32; d++ {
			if a[i].Uint64() != b[i].Uint64() {
				t.Fatalf("stream %d not reproducible at draw %d", i, d)
			}
		}
	}
	// Distinct streams should not be identical.
	c := derivedStreams(3, 2)
	if c[0].Uint64() == c[1].Uint64() && c[0].Uint64() == c[1].Uint64() {
		t.Fatal("derived streams appear identical")
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(11)
	for _, n := range []uint64{1, 2, 3, 7, 10, 1 << 20, (1 << 40) + 13} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) returned %d", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Uint64n(0)")
		}
	}()
	New(1).Uint64n(0)
}

// uint64nReference is Uint64n as it was before the threshold became lazy:
// the remainder on every call, and a hand-written 64x64 -> 128 multiply.
func uint64nReference(s *Stream, n uint64) uint64 {
	if n&(n-1) == 0 {
		return s.src.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		hi, lo := mul64Reference(s.src.Uint64(), n)
		if lo >= thresh {
			return hi
		}
	}
}

func mul64Reference(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// countingSource counts the draws a Stream takes from its generator.
type countingSource struct {
	Xoshiro256
	draws int
}

func (c *countingSource) Uint64() uint64 { c.draws++; return c.Xoshiro256.Uint64() }

// TestUint64nMatchesReference holds Uint64n to the reference draw for draw:
// the same value from the same number of generator outputs, so no stream
// position moves. Each class of n gets a million draws: random n in
// [2, 2^20], every power of two, and n near 2^63, where up to half of all
// draws are rejected.
func TestUint64nMatchesReference(t *testing.T) {
	const draws = 1_000_000
	pick := New(99)
	classes := []struct {
		name string
		n    func(i int) uint64
	}{
		{"random", func(int) uint64 { return 2 + pick.Uint64n(1<<20-1) }},
		{"power-of-two", func(i int) uint64 { return 1 << (i % 64) }},
		{"rejection-heavy", func(i int) uint64 { return []uint64{3 << 62, 1<<63 + 1, math.MaxUint64}[i%3] }},
	}
	for ci, c := range classes {
		gotSrc, wantSrc := &countingSource{}, &countingSource{}
		gotSrc.Seed(uint64(ci))
		wantSrc.Seed(uint64(ci))
		got, want := NewWithSource(gotSrc), NewWithSource(wantSrc)
		rejected := 0
		for i := 0; i < draws; i++ {
			n := c.n(i)
			before := wantSrc.draws
			g, w := got.Uint64n(n), uint64nReference(want, n)
			if g != w || gotSrc.draws != wantSrc.draws {
				t.Fatalf("%s draw %d, n = %d: %d after %d outputs, reference %d after %d", c.name, i, n, g, gotSrc.draws, w, wantSrc.draws)
			}
			rejected += wantSrc.draws - before - 1
		}
		if c.name == "rejection-heavy" && rejected < draws/10 {
			t.Fatalf("%s: %d rejections in %d draws: the rejection loop was hardly run", c.name, rejected, draws)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-style check: 10 buckets, 100k draws, each bucket should be
	// within 5% of expectation. This is a loose statistical test with a
	// fixed seed so it is fully deterministic.
	s := New(1234)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want %.0f +/- 5%%", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(77)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64OpenRange(t *testing.T) {
	s := New(78)
	for i := 0; i < 100000; i++ {
		f := s.Float64Open()
		if f <= 0 || f > 1 {
			t.Fatalf("Float64Open out of (0,1]: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(79)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %.4f, want 0.5 +/- 0.005", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(5)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(6)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate %.4f", rate)
	}
}
