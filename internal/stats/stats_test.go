package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if !almostEq(a.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", a.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance is
	// 32/7.
	if !almostEq(a.Var(), 32.0/7, 1e-12) {
		t.Fatalf("var = %v", a.Var())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Var() != 0 || a.Std() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Var() != 0 {
		t.Fatalf("single-observation variance = %v", a.Var())
	}
	if a.Mean() != 3.5 || a.Min() != 3.5 || a.Max() != 3.5 {
		t.Fatal("single observation stats wrong")
	}
}

func TestAccumulatorMatchesNaive(t *testing.T) {
	err := quick.Check(func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		var a Accumulator
		var sum float64
		for _, r := range raw {
			a.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		wantVar := 0.0
		if len(raw) > 1 {
			wantVar = ss / float64(len(raw)-1)
		}
		return almostEq(a.Mean(), mean, 1e-9) && almostEq(a.Var(), wantVar, 1e-7)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{9, 1, 5, 3, 7})
	if s.N != 5 || s.Min != 1 || s.Max != 9 || s.Median != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if !almostEq(s.Mean, 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {-0.5, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestFitLineExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 3 + 2x
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 3, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitLineNoise(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5}
	y := []float64{1.1, 2.9, 5.2, 6.8, 9.1, 10.9} // approx y = 1 + 2x
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.1 {
		t.Fatalf("slope %v", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 %v", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{2}); err == nil {
		t.Error("accepted single point")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{2}); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := FitLine([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Error("accepted constant x")
	}
}

func TestFitLineConstantY(t *testing.T) {
	fit, err := FitLine([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Fatalf("constant y fit = %+v", fit)
	}
}

func TestFitLogN(t *testing.T) {
	ns := []int{2, 4, 8, 16}
	y := []float64{3, 6, 9, 12} // 3 * log2(n)
	fit, err := FitLogN(ns, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 3, 1e-9) || !almostEq(fit.Intercept, 0, 1e-9) {
		t.Fatalf("fit = %+v", fit)
	}
	if _, err := FitLogN([]int{0, 2}, []float64{1, 2}); err == nil {
		t.Error("accepted non-positive n")
	}
}
