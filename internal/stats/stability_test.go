package stats

import (
	"math"
	"testing"
)

// Numeric-stability tests: Welford must survive the catastrophic
// cancellation that kills the naive sum-of-squares formula, because the
// experiment harness accumulates hundreds of thousands of near-identical
// fractions.

func TestWelfordStableUnderLargeOffset(t *testing.T) {
	// Data with mean 1e9 and tiny variance: the naive formula loses all
	// precision; Welford must not.
	var a Accumulator
	const offset = 1e9
	vals := []float64{offset + 0.1, offset + 0.2, offset + 0.3, offset + 0.4}
	for _, v := range vals {
		a.Add(v)
	}
	if math.Abs(a.Mean()-offset-0.25) > 1e-6 {
		t.Fatalf("mean = %v", a.Mean())
	}
	// Sample variance of {.1,.2,.3,.4} is 1/60 ≈ 0.016667.
	if math.Abs(a.Var()-1.0/60) > 1e-6 {
		t.Fatalf("variance %v under offset, want %v", a.Var(), 1.0/60)
	}
}

func TestWelfordManySmallIncrements(t *testing.T) {
	// 10^6 alternating observations: mean exactly 0.5, variance 0.25.
	var a Accumulator
	for i := 0; i < 1000000; i++ {
		a.Add(float64(i % 2))
	}
	if math.Abs(a.Mean()-0.5) > 1e-12 {
		t.Fatalf("mean drifted: %v", a.Mean())
	}
	if math.Abs(a.Var()-0.25) > 1e-6 {
		t.Fatalf("variance drifted: %v", a.Var())
	}
}

func TestQuantileAgainstExhaustive(t *testing.T) {
	// Linear-interpolation quantiles cross-checked against a brute-force
	// re-implementation on random data.
	sorted := []float64{1, 2, 4, 8, 16, 32, 64, 128}
	for q := 0.0; q <= 1.0; q += 0.05 {
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		want := sorted[lo]*(1-frac) + sorted[hi]*frac
		if got := Quantile(sorted, q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("q=%.2f: got %v want %v", q, got, want)
		}
	}
}

func TestFitLineSingularityGuards(t *testing.T) {
	// Nearly-constant x must not blow up to absurd slopes silently: with
	// exactly constant x we error; with a tiny but nonzero spread the math
	// stays finite.
	fit, err := FitLine([]float64{1, 1 + 1e-12}, []float64{0, 1})
	if err != nil {
		t.Fatalf("tiny-spread fit rejected: %v", err)
	}
	if math.IsNaN(fit.Slope) || math.IsInf(fit.Slope, 0) {
		t.Fatalf("non-finite slope %v", fit.Slope)
	}
	if math.IsNaN(fit.R2) {
		t.Fatalf("NaN R2")
	}
}

func TestSummaryQuantilesOrdered(t *testing.T) {
	xs := []float64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	s := Summarize(xs)
	if !(s.Min <= s.P10 && s.P10 <= s.Median && s.Median <= s.P90 && s.P90 <= s.Max) {
		t.Fatalf("quantiles out of order: %+v", s)
	}
}
