package core

import (
	"fmt"
	"math"
)

// This file contains the analytical companions to the paper's Lemma 1: the
// exact Poisson-limit prediction of the arranged fraction, against which the
// simulations are validated.
//
// Under uniform selection with n nodes and m = lambda*n requests of each
// type, the offers and requests landing on one node are asymptotically
// independent Poisson(lambda) variables S and R, and the node arranges
// min(S, R) dates. The expected fraction of the optimum is therefore
//
//	alpha(lambda) = E[min(S, R)] / lambda,  S, R ~ Poisson(lambda) iid.
//
// For lambda = 1 this evaluates to 0.4761..., matching the "slightly more
// than 0.47" the paper reports from its own simulations (Section 4). The
// paper's proven lower bound is much cruder: its sub-bucket argument yields
// 0.064, and its Poisson estimate in the uniform case yields 0.44.

// PoissonPMF returns P(Poisson(lambda) = k), computed in log space for
// stability at large lambda.
func PoissonPMF(lambda float64, k int) float64 {
	if lambda <= 0 || k < 0 {
		if k == 0 && lambda <= 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(float64(k)*math.Log(lambda) - lambda - lg)
}

// PoissonSF returns P(Poisson(lambda) >= k).
func PoissonSF(lambda float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	// Sum the lower tail and subtract; the PMF terms are computed stably.
	var cdf float64
	for i := 0; i < k; i++ {
		cdf += PoissonPMF(lambda, i)
	}
	if cdf > 1 {
		cdf = 1
	}
	return 1 - cdf
}

// ExpectedMinPoisson returns E[min(S, R)] for iid S, R ~ Poisson(lambda),
// using E[min] = sum_{k>=1} P(S >= k)^2. The series is truncated when the
// tail is below 1e-12, which for the lambdas used here (<= 64) converges in
// a few hundred terms.
func ExpectedMinPoisson(lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	var sum float64
	for k := 1; ; k++ {
		sf := PoissonSF(lambda, k)
		term := sf * sf
		sum += term
		if term < 1e-12 && float64(k) > lambda {
			return sum
		}
		if k > 100000 {
			return sum
		}
	}
}

// PredictUniformFraction returns the Poisson-limit prediction of the
// arranged fraction alpha(lambda) = E[min(S,R)]/lambda for uniform
// selection with lambda = m/n requests of each type per node. Simulations
// in this repository match it to three decimals (see TestPoissonPrediction).
func PredictUniformFraction(lambda float64) (float64, error) {
	if lambda <= 0 {
		return 0, fmt.Errorf("core: load ratio must be positive, got %v", lambda)
	}
	return ExpectedMinPoisson(lambda) / lambda, nil
}

// PredictWeightedFraction generalizes the prediction to an arbitrary
// selection distribution p_1..p_n with m requests of each type: node i
// receives Poisson(m*p_i) of each kind, so
//
//	E[X] = sum_i E[min(Poisson(m*p_i), Poisson(m*p_i))]
//
// and the fraction is E[X]/m. This is the quantity behind the paper's
// conjecture that uniform is the worst case.
func PredictWeightedFraction(weights []float64, m int) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("core: m must be positive, got %d", m)
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, fmt.Errorf("core: invalid weight %v at %d", w, i)
		}
		sum += w
	}
	if sum <= 0 {
		return 0, fmt.Errorf("core: weights sum to zero")
	}
	var ex float64
	for _, w := range weights {
		if w == 0 {
			continue
		}
		ex += ExpectedMinPoisson(float64(m) * w / sum)
	}
	return ex / float64(m), nil
}
