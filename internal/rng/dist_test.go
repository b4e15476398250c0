package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAliasRejectsBadWeights(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0, 0, 0},
		{-1, 2},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, w := range cases {
		if _, err := NewAlias(w); err == nil {
			t.Errorf("NewAlias(%v) accepted invalid weights", w)
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	s := New(100)
	const draws = 400000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(s)]++
	}
	for i, w := range weights {
		want := w / 10 * draws
		if math.Abs(float64(counts[i])-want) > 0.03*want {
			t.Errorf("outcome %d: count %d, want %.0f +/- 3%%", i, counts[i], want)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	s := New(1)
	for i := 0; i < 100; i++ {
		if a.Sample(s) != 0 {
			t.Fatal("single-outcome alias returned nonzero index")
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a, err := NewAlias([]float64{0, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(2)
	for i := 0; i < 100000; i++ {
		v := a.Sample(s)
		if v == 0 || v == 2 {
			t.Fatalf("sampled zero-weight outcome %d", v)
		}
	}
}

func TestAliasProbabilitiesSaneProperty(t *testing.T) {
	// Property: for random positive weight vectors, empirical frequencies
	// track normalized weights within a loose tolerance.
	err := quick.Check(func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 12 {
			return true // skip degenerate sizes
		}
		weights := make([]float64, len(raw))
		var sum float64
		for i, r := range raw {
			weights[i] = float64(r%16) + 1 // 1..16, all positive
			sum += weights[i]
		}
		a, err := NewAlias(weights)
		if err != nil {
			return false
		}
		s := New(seed)
		const draws = 30000
		counts := make([]int, len(weights))
		for i := 0; i < draws; i++ {
			counts[a.Sample(s)]++
		}
		for i := range weights {
			want := weights[i] / sum
			got := float64(counts[i]) / draws
			if math.Abs(got-want) > 0.05*want+0.01 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0, 1) accepted")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("NewZipf(10, 0) accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("NewZipf(10, -1) accepted")
	}
}

func TestZipfRanksDecreasing(t *testing.T) {
	z, err := NewZipf(50, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(3)
	counts := make([]int, 51)
	for i := 0; i < 300000; i++ {
		r := z.Sample(s)
		if r < 1 || r > 50 {
			t.Fatalf("Zipf rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 1 should dominate rank 10 by roughly 10^1.2 ~ 15.8x.
	ratio := float64(counts[1]) / float64(counts[10])
	if ratio < 10 || ratio > 25 {
		t.Fatalf("Zipf rank1/rank10 ratio %.1f, want ~15.8", ratio)
	}
}
