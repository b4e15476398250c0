package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"
)

// zigR is expR, kept literal so the test does not lean on the sampler it checks.
const zigR = 7.69711747013104972

// TestExpFloat64Conformance checks ExpFloat64 against Exp(1) on 10^6 draws:
// the Kolmogorov–Smirnov distance at α = 0.001, the mean and variance within
// five standard errors, and the tail beyond the ziggurat's R — its mass
// within 5σ of e^-R and its mean excess within 0.25 of 1 — since the tail
// and the wedges are the sampler's rarely taken paths.
func TestExpFloat64Conformance(t *testing.T) {
	const n = 1_000_000
	s := New(11)
	xs := make([]float64, n)
	var sum, sumSq, excess float64
	tail := 0
	for i := range xs {
		x := s.ExpFloat64()
		if !(x >= 0) || math.IsInf(x, 0) {
			t.Fatalf("draw %d = %v, want a finite non-negative value", i, x)
		}
		xs[i] = x
		sum += x
		sumSq += x * x
		if x > zigR {
			tail++
			excess += x - zigR
		}
	}

	mean := sum / n
	variance := sumSq/n - mean*mean
	// Exp(1) has mean 1, variance 1 and fourth central moment 9, so the
	// sample variance has standard error sqrt(8/n).
	if se := 1 / math.Sqrt(n); math.Abs(mean-1) > 5*se {
		t.Errorf("mean %.5f, want 1 ± %.5f (5 SE)", mean, 5*se)
	}
	if se := math.Sqrt(8.0 / n); math.Abs(variance-1) > 5*se {
		t.Errorf("variance %.5f, want 1 ± %.5f (5 SE)", variance, 5*se)
	}

	p := math.Exp(-zigR)
	want, sigma := n*p, math.Sqrt(n*p*(1-p))
	if math.Abs(float64(tail)-want) > 5*sigma {
		t.Errorf("%d draws beyond R = %v, want %.1f ± %.1f (5σ)", tail, zigR, want, 5*sigma)
	}
	if tail == 0 {
		t.Fatal("no draw beyond R")
	}
	if m := excess / float64(tail); math.Abs(m-1) > 0.25 {
		t.Errorf("mean excess over R %.3f from %d tail draws, want 1 ± 0.25", m, tail)
	}

	sort.Float64s(xs)
	var d float64
	for i, x := range xs {
		f := -math.Expm1(-x)
		d = max(d, f-float64(i)/n, float64(i+1)/n-f)
	}
	// Asymptotic critical value sqrt(-ln(α/2)/2)/sqrt(n) at α = 0.001.
	if crit := math.Sqrt(-math.Log(0.001/2)/2) / math.Sqrt(n); d > crit {
		t.Errorf("KS distance %.5f over %d draws, critical %.5f at α = 0.001", d, n, crit)
	}
	t.Logf("mean %.5f, variance %.5f, %d beyond R (mean excess %.3f), KS D %.5f",
		mean, variance, tail, excess/float64(tail), d)
}

// TestExpFloat64Golden pins the sampler's output bits: the first 16 draws at
// seed 42, which take the fast path, and a digest of the first 10^6 at seed
// 11, which take the tail and the wedges too. A change to the sampler fails
// here, before it moves the digests of the runs that draw from it.
func TestExpFloat64Golden(t *testing.T) {
	want := [16]uint64{
		0x3fa430e94355bf1d, 0x3fe3f46f6fae652f, 0x3ff7257855f3d34a, 0x3fff79312a0eda77,
		0x3ff5444430169e60, 0x3ffbc31f1ede4257, 0x3ff7ee4996e9b15f, 0x3ff40b71a0ff400c,
		0x3fe1220d8d6c086e, 0x3ff0421fb70f74fe, 0x3fd923e2753e64f8, 0x3fffdf3e41cda4ac,
		0x3fd3facd22a39a0f, 0x40010d7e62f3bb0b, 0x4013e528fbf08eb9, 0x3ff33cb6da628b0e,
	}
	s := New(42)
	for i, w := range want {
		if got := math.Float64bits(s.ExpFloat64()); got != w {
			t.Fatalf("draw %d at seed 42: bits %#016x, pinned %#016x", i, got, w)
		}
	}
	h := fnv.New64a()
	s = New(11)
	var b [8]byte
	for range 1_000_000 {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.ExpFloat64()))
		h.Write(b[:])
	}
	if got, want := h.Sum64(), uint64(0x052d77ca9445eb9e); got != want {
		t.Errorf("digest of 10^6 draws at seed 11: %#016x, pinned %#016x", got, want)
	}
}
