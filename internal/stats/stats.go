// Package stats provides the statistical machinery used to reproduce the
// paper's evaluation: numerically stable accumulators for means and standard
// deviations (Figures 1 and 2 report avg ± stddev over 10^3–10^4 repetitions),
// summaries with quantiles, least-squares fits for validating the O(log n)
// scaling claims, and plain-text / CSV tables that keep each cell's number
// for the experiment harness's claims.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes running mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean, or 0 with no observations.
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance (n-1 denominator), or 0 when
// fewer than two observations have been added.
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation (0 if empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 if empty).
func (a *Accumulator) Max() float64 { return a.max }

// String renders "mean ± std" with three significant decimals.
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.3f ± %.3f", a.Mean(), a.Std())
}

// Summary captures the distribution of a finished sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P10    float64
	P90    float64
}

// Summarize computes a Summary over the given observations. It copies and
// sorts the data; the input is left unmodified.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Mean = acc.Mean()
	s.Std = acc.Std()
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P10 = Quantile(sorted, 0.10)
	s.P90 = Quantile(sorted, 0.90)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted data using linear
// interpolation between closest ranks. The input must be sorted ascending
// and non-empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty data")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit is the least-squares line y = Intercept + Slope*x together with
// the coefficient of determination R2. Fitting rounds-to-spread against
// log(n) and checking R2 ~ 1 is how the harness validates the paper's
// O(log n) round-complexity claims.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine computes the ordinary least squares fit of y on x. The slices must
// have equal length >= 2 and x must not be constant.
func FitLine(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: FitLine length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLine needs at least 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLine with constant x")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
	}
	if syy == 0 {
		fit.R2 = 1 // y constant and perfectly predicted by a flat line
	} else {
		fit.R2 = sxy * sxy / (sxx * syy)
	}
	return fit, nil
}

// FitLogN fits y against log2(n) for positive n values; convenience wrapper
// for scaling checks of the form rounds = a + b*log2(n).
func FitLogN(ns []int, y []float64) (LinearFit, error) {
	x := make([]float64, len(ns))
	for i, n := range ns {
		if n <= 0 {
			return LinearFit{}, fmt.Errorf("stats: FitLogN with non-positive n %d", n)
		}
		x[i] = math.Log2(float64(n))
	}
	return FitLine(x, y)
}
