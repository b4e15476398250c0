package core

import (
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
	"repro/internal/stats"
)

// lowerBoundBeta is the universal constant beta the paper proves in
// Lemma 1/2: with high probability at least beta*m dates are arranged, for
// any selection distribution.
const lowerBoundBeta = 0.064

// paperUniformEstimate is the uniform-case estimate quoted in the paper
// ("we get an estimate of 0.44*n when m = n").
const paperUniformEstimate = 0.44

func TestPoissonPMFBasics(t *testing.T) {
	// Po(1): P(0) = P(1) = 1/e.
	e := math.Exp(-1)
	if got := PoissonPMF(1, 0); math.Abs(got-e) > 1e-12 {
		t.Fatalf("P(Po(1)=0) = %v", got)
	}
	if got := PoissonPMF(1, 1); math.Abs(got-e) > 1e-12 {
		t.Fatalf("P(Po(1)=1) = %v", got)
	}
	if got := PoissonPMF(1, -1); got != 0 {
		t.Fatalf("negative k: %v", got)
	}
	if got := PoissonPMF(0, 0); got != 1 {
		t.Fatalf("lambda=0, k=0: %v", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.25, 1, 4, 30} {
		var sum float64
		for k := 0; k < 300; k++ {
			sum += PoissonPMF(lambda, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lambda=%v: pmf sums to %v", lambda, sum)
		}
	}
}

func TestPoissonSF(t *testing.T) {
	if got := PoissonSF(1, 0); got != 1 {
		t.Fatalf("SF(>=0) = %v", got)
	}
	want := 1 - math.Exp(-1)
	if got := PoissonSF(1, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SF(>=1) = %v, want %v", got, want)
	}
	// SF decreasing in k.
	prev := 1.0
	for k := 1; k < 20; k++ {
		sf := PoissonSF(2, k)
		if sf > prev {
			t.Fatalf("SF not decreasing at k=%d", k)
		}
		prev = sf
	}
}

func TestExpectedMinPoissonKnownValue(t *testing.T) {
	// E[min(P,Q)] for iid Po(1) = sum_k P(>=k)^2 = 0.4761... (computed
	// independently); this is the exact constant behind the paper's
	// "slightly more than 0.47*n".
	got := ExpectedMinPoisson(1)
	if math.Abs(got-0.476) > 0.002 {
		t.Fatalf("E[min(Po(1),Po(1))] = %v, want ~0.476", got)
	}
	// E[min] <= lambda, and grows with lambda.
	prev := 0.0
	for _, lambda := range []float64{0.5, 1, 2, 4, 8} {
		v := ExpectedMinPoisson(lambda)
		if v <= prev || v > lambda {
			t.Fatalf("E[min] at lambda=%v is %v (prev %v)", lambda, v, prev)
		}
		prev = v
	}
	if ExpectedMinPoisson(0) != 0 {
		t.Fatal("lambda=0 must give 0")
	}
}

// poisson samples Poisson(lambda) by Knuth's product method: the number of
// uniform factors whose running product stays above exp(-lambda). It
// underflows for large lambda, which the Monte Carlo test below never asks.
func poisson(s *rng.Stream, lambda float64) int {
	l, p := math.Exp(-lambda), s.Float64Open()
	k := 0
	for ; p > l; k++ {
		p *= s.Float64Open()
	}
	return k
}

func TestExpectedMinPoissonMonteCarlo(t *testing.T) {
	// Cross-validate the series against direct Monte Carlo sampling.
	s := rng.New(42)
	for _, lambda := range []float64{0.5, 1, 3} {
		const reps = 200000
		var sum float64
		for i := 0; i < reps; i++ {
			a, b := poisson(s, lambda), poisson(s, lambda)
			if b < a {
				a = b
			}
			sum += float64(a)
		}
		mc := sum / reps
		series := ExpectedMinPoisson(lambda)
		if math.Abs(mc-series) > 0.01*lambda+0.005 {
			t.Errorf("lambda=%v: series %v vs monte carlo %v", lambda, series, mc)
		}
	}
}

func TestPredictUniformFractionValidation(t *testing.T) {
	if _, err := PredictUniformFraction(0); err == nil {
		t.Error("accepted lambda = 0")
	}
	if _, err := PredictUniformFraction(-1); err == nil {
		t.Error("accepted negative lambda")
	}
}

func TestPoissonPredictionMatchesSimulation(t *testing.T) {
	// The headline validation: the Poisson-limit prediction matches the
	// simulated fraction across loads, far more precisely than the paper's
	// 0.44 estimate or its 0.064 proven bound.
	const n = 2000
	s := rng.New(7)
	for _, b := range []int{1, 2, 4} {
		sel, _ := NewUniformSelector(n)
		sv, err := NewService(bandwidth.Homogeneous(n, b), sel)
		if err != nil {
			t.Fatal(err)
		}
		var acc stats.Accumulator
		for r := 0; r < 100; r++ {
			acc.Add(seededRound(t, sv, s.Uint64()).Fraction(sv.M()))
		}
		pred, err := PredictUniformFraction(float64(b))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(acc.Mean()-pred) > 0.01 {
			t.Errorf("load %d: simulated %.4f vs predicted %.4f", b, acc.Mean(), pred)
		}
		// Sanity against the paper's constants.
		if pred < paperUniformEstimate || pred < lowerBoundBeta {
			t.Errorf("prediction %.4f below the paper's own bounds", pred)
		}
	}
}

func TestPredictWeightedFraction(t *testing.T) {
	// Uniform weights must agree with the uniform prediction.
	n := 500
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	got, err := PredictWeightedFraction(w, n)
	if err != nil {
		t.Fatal(err)
	}
	uni, _ := PredictUniformFraction(1)
	if math.Abs(got-uni) > 1e-9 {
		t.Fatalf("weighted(uniform) %v != uniform %v", got, uni)
	}
}

func TestPredictWeightedFractionSkewBeatsUniform(t *testing.T) {
	// The conjecture at the level of the Poisson model: a skewed
	// distribution predicts a higher fraction than uniform.
	n := 500
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	w[0] = float64(n) // hub attracts half the requests
	skew, err := PredictWeightedFraction(w, n)
	if err != nil {
		t.Fatal(err)
	}
	uni, _ := PredictUniformFraction(1)
	if skew <= uni {
		t.Fatalf("skewed prediction %v not above uniform %v", skew, uni)
	}
}

func TestPredictWeightedFractionMatchesSimulation(t *testing.T) {
	// End-to-end: prediction vs simulation for a lumpy distribution.
	const n = 1000
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + float64(i%10)
	}
	pred, err := PredictWeightedFraction(w, n)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewWeightedSelector(w)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewService(bandwidth.Homogeneous(n, 1), sel)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(8)
	var acc stats.Accumulator
	for r := 0; r < 150; r++ {
		acc.Add(seededRound(t, sv, s.Uint64()).Fraction(n))
	}
	if math.Abs(acc.Mean()-pred) > 0.015 {
		t.Fatalf("simulated %.4f vs predicted %.4f", acc.Mean(), pred)
	}
}

func TestPredictWeightedFractionValidation(t *testing.T) {
	if _, err := PredictWeightedFraction([]float64{1}, 0); err == nil {
		t.Error("accepted m = 0")
	}
	if _, err := PredictWeightedFraction([]float64{-1, 2}, 5); err == nil {
		t.Error("accepted negative weight")
	}
	if _, err := PredictWeightedFraction([]float64{0, 0}, 5); err == nil {
		t.Error("accepted zero-sum weights")
	}
	// Zero weights among positive ones are fine.
	if _, err := PredictWeightedFraction([]float64{0, 1, 0}, 5); err != nil {
		t.Errorf("rejected sparse weights: %v", err)
	}
}
