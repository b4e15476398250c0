package rng

import (
	"math"
	"testing"
)

// Statistical quality tests beyond basic uniformity: serial correlation,
// pairwise bucket independence and bit balance. All use fixed seeds, so
// they are deterministic.

func TestSerialCorrelationLow(t *testing.T) {
	s := New(101)
	const n = 200000
	xs := make([]float64, n)
	var mean float64
	for i := range xs {
		xs[i] = s.Float64()
		mean += xs[i]
	}
	mean /= n
	var num, den float64
	for i := 0; i < n-1; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
	}
	for i := 0; i < n; i++ {
		den += (xs[i] - mean) * (xs[i] - mean)
	}
	if r := num / den; math.Abs(r) > 0.01 {
		t.Errorf("lag-1 autocorrelation %.4f", r)
	}
}

func TestPairBucketIndependence(t *testing.T) {
	// Consecutive draws binned into a 4x4 contingency table should show no
	// dependence: every cell near n/16.
	s := New(202)
	const n = 160000
	var cells [4][4]int
	for i := 0; i < n; i++ {
		a := s.Intn(4)
		b := s.Intn(4)
		cells[a][b]++
	}
	want := float64(n) / 16
	for i := range cells {
		for j := range cells[i] {
			if math.Abs(float64(cells[i][j])-want) > 0.05*want {
				t.Errorf("cell (%d,%d) = %d, want %.0f ± 5%%", i, j, cells[i][j], want)
			}
		}
	}
}

func TestBitBalance(t *testing.T) {
	// Every output bit position should be set about half the time.
	s := New(303)
	const n = 100000
	var counts [64]int
	for i := 0; i < n; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/2) > 0.02*n {
			t.Errorf("bit %d set %d of %d times", b, c, n)
		}
	}
}

func TestUint64nLargeBoundsUnbiased(t *testing.T) {
	// Lemire rejection must stay unbiased for bounds just below a power of
	// two, the worst case for naive modulo.
	s := New(505)
	n := uint64(1<<16 - 1)
	const draws = 300000
	lowHalf := 0
	for i := 0; i < draws; i++ {
		if s.Uint64n(n) < n/2 {
			lowHalf++
		}
	}
	frac := float64(lowHalf) / draws
	if math.Abs(frac-0.5) > 0.005 {
		t.Fatalf("low-half fraction %.4f", frac)
	}
}

func TestStreamsPairwiseDistinct(t *testing.T) {
	// Any two of many derived streams should diverge immediately.
	streams := derivedStreams(606, 32)
	firsts := map[uint64]int{}
	for i, s := range streams {
		v := s.Uint64()
		if prev, dup := firsts[v]; dup {
			t.Fatalf("streams %d and %d share first output", prev, i)
		}
		firsts[v] = i
	}
}

func TestPoissonDecompositionPath(t *testing.T) {
	// lambda > 30 triggers the halving decomposition; verify moments there.
	s := New(808)
	const lambda, reps = 250.0, 20000
	var sum, sumSq float64
	for i := 0; i < reps; i++ {
		v := float64(s.Poisson(lambda))
		sum += v
		sumSq += v * v
	}
	mean := sum / reps
	variance := sumSq/reps - mean*mean
	if math.Abs(mean-lambda) > 0.02*lambda {
		t.Fatalf("Poisson(250) mean %.2f", mean)
	}
	if math.Abs(variance-lambda) > 0.08*lambda {
		t.Fatalf("Poisson(250) variance %.2f", variance)
	}
}
