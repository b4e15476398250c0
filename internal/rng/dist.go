package rng

import (
	"fmt"
	"math"
)

// Alias is a Walker/Vose alias table for O(1) sampling from an arbitrary
// discrete distribution over [0, n). It is the workhorse behind every
// non-uniform node-selection distribution in the dating service (DHT interval
// weights, Zipf popularity, two-point masses).
//
// The table is immutable after construction and safe for concurrent sampling
// as long as each goroutine uses its own Stream.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from non-negative weights. The weights need
// not sum to one; they are normalized internally. At least one weight must be
// positive.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("rng: alias table needs at least one weight")
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rng: alias weight %d is invalid (%v)", i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("rng: alias weights sum to zero")
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Vose's algorithm: partition scaled weights into small (<1) and large
	// (>=1) work lists, then pair each small entry with a large donor.
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[l] = scaled[l]
		a.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Remaining entries have probability 1 up to floating-point error.
	for _, g := range large {
		a.prob[g] = 1
		a.alias[g] = g
	}
	for _, l := range small {
		a.prob[l] = 1
		a.alias[l] = l
	}
	return a, nil
}

// N returns the number of outcomes.
func (a *Alias) N() int { return len(a.prob) }

// Sample draws one outcome in [0, N()) with the configured probabilities.
func (a *Alias) Sample(s *Stream) int {
	i := s.Intn(len(a.prob))
	if s.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Zipf samples from a Zipf distribution over ranks {1, ..., n} with exponent
// exponent > 0: P(k) proportional to 1/k^exponent. Construction is O(n) via an
// alias table, sampling is O(1).
type Zipf struct {
	table *Alias
}

// NewZipf builds a Zipf sampler over n ranks with the given exponent.
func NewZipf(n int, exponent float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rng: Zipf needs n > 0, got %d", n)
	}
	if exponent <= 0 || math.IsNaN(exponent) {
		return nil, fmt.Errorf("rng: Zipf needs exponent > 0, got %v", exponent)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -exponent)
	}
	t, err := NewAlias(w)
	if err != nil {
		return nil, err
	}
	return &Zipf{table: t}, nil
}

// Sample returns a rank in {1, ..., n}.
func (z *Zipf) Sample(s *Stream) int { return z.table.Sample(s) + 1 }

// Poisson samples from Poisson(lambda) using Knuth's product method for
// small lambda and decomposition for large lambda (splitting lambda in
// halves keeps the product method's underflow at bay while remaining exact).
func (s *Stream) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Poisson(a+b) = Poisson(a) + Poisson(b) for independent draws.
		half := lambda / 2
		return s.Poisson(half) + s.Poisson(lambda-half)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.Float64Open()
		if p <= l {
			return k
		}
		k++
	}
}
