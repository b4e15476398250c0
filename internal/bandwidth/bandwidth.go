// Package bandwidth models the paper's heterogeneous communication
// capabilities. Each node i has an incoming bandwidth bin(i) and an outgoing
// bandwidth bout(i): the number of unit-size messages it can receive and send
// per round. Cross-node ratios are unbounded, but each node's own in/out
// ratio is bounded by a constant C (paper, Section 1):
//
//	1/C <= bin(i)/bout(i) <= C  for all i.
//
// The package provides the profile generators used by the experiments:
// homogeneous (the Figure 1/2 setting, bin = bout = 1), bimodal
// (rich/poor populations for Theorem 10), Zipf/power-law, and geometric.
package bandwidth

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Profile holds per-node incoming and outgoing bandwidths.
type Profile struct {
	In  []int // bin(i): unit messages node i can receive per round
	Out []int // bout(i): unit messages node i can send per round
}

// N returns the number of nodes.
func (p Profile) N() int { return len(p.In) }

// TotalIn returns Bin = sum of bin(i).
func (p Profile) TotalIn() int {
	t := 0
	for _, b := range p.In {
		t += b
	}
	return t
}

// TotalOut returns Bout = sum of bout(i).
func (p Profile) TotalOut() int {
	t := 0
	for _, b := range p.Out {
		t += b
	}
	return t
}

// M returns m = min(Bin, Bout): the number of dates a centralized matchmaker
// could organize per round, the yardstick for the dating service's fraction.
func (p Profile) M() int {
	in, out := p.TotalIn(), p.TotalOut()
	if in < out {
		return in
	}
	return out
}

// Ratio returns the smallest constant C such that
// 1/C <= bin(i)/bout(i) <= C holds for every node, or an error if any node
// has a non-positive bandwidth (the model requires at least one unit each
// way so that every node can take part in the protocol).
func (p Profile) Ratio() (float64, error) {
	if len(p.In) != len(p.Out) {
		return 0, fmt.Errorf("bandwidth: in/out length mismatch %d vs %d", len(p.In), len(p.Out))
	}
	c := 1.0
	for i := range p.In {
		if p.In[i] <= 0 || p.Out[i] <= 0 {
			return 0, fmt.Errorf("bandwidth: node %d has non-positive bandwidth (in=%d out=%d)", i, p.In[i], p.Out[i])
		}
		r := float64(p.In[i]) / float64(p.Out[i])
		if r < 1 {
			r = 1 / r
		}
		if r > c {
			c = r
		}
	}
	return c, nil
}

// Validate checks structural sanity and that the node-local ratio constraint
// holds for the given C.
func (p Profile) Validate(c float64) error {
	if c < 1 {
		return fmt.Errorf("bandwidth: C must be >= 1, got %v", c)
	}
	got, err := p.Ratio()
	if err != nil {
		return err
	}
	// Allow a hair of float slack so C computed from the profile validates.
	if got > c*(1+1e-12) {
		return fmt.Errorf("bandwidth: ratio constraint violated: observed C = %v > %v", got, c)
	}
	return nil
}

// Homogeneous returns the unit-bandwidth profile used by both of the paper's
// figures: every node has bin = bout = b.
func Homogeneous(n, b int) Profile {
	in := make([]int, n)
	out := make([]int, n)
	for i := range in {
		in[i] = b
		out[i] = b
	}
	return Profile{In: in, Out: out}
}

// Bimodal returns a two-class profile: the first rich nodes have bandwidth
// richB in and out, the rest have poorB. It is the natural workload for the
// Theorem 10 experiment (nodes of at least average bandwidth vs weak nodes).
func Bimodal(n, rich, richB, poorB int) (Profile, error) {
	if rich < 0 || rich > n {
		return Profile{}, fmt.Errorf("bandwidth: rich count %d out of [0,%d]", rich, n)
	}
	if richB <= 0 || poorB <= 0 {
		return Profile{}, fmt.Errorf("bandwidth: class bandwidths must be positive (rich=%d poor=%d)", richB, poorB)
	}
	in := make([]int, n)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		b := poorB
		if i < rich {
			b = richB
		}
		in[i] = b
		out[i] = b
	}
	return Profile{In: in, Out: out}, nil
}

// Zipf draws per-node base bandwidths from a Zipf law over {1..maxB} with
// the given exponent (popular low ranks get high bandwidth: a node drawing
// rank k receives base bandwidth max(1, maxB/k)), then independently skews
// in vs out within the C bound: bout = base, bin = base scaled by a uniform
// factor in [1/C, C], rounded and clamped to keep the constraint exact.
func Zipf(n int, exponent float64, maxB int, c float64, s *rng.Stream) (Profile, error) {
	if n <= 0 {
		return Profile{}, fmt.Errorf("bandwidth: Zipf needs n > 0")
	}
	if maxB <= 0 {
		return Profile{}, fmt.Errorf("bandwidth: Zipf needs maxB > 0")
	}
	if c < 1 {
		return Profile{}, fmt.Errorf("bandwidth: Zipf needs C >= 1, got %v", c)
	}
	z, err := rng.NewZipf(maxB, exponent)
	if err != nil {
		return Profile{}, err
	}
	in := make([]int, n)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		rank := z.Sample(s)
		base := maxB / rank
		if base < 1 {
			base = 1
		}
		out[i] = base
		in[i] = skew(base, c, s)
	}
	return Profile{In: in, Out: out}, nil
}

// Geometric assigns bandwidth 2^k to a 2^-(k+1) fraction of nodes
// (half the nodes get 1, a quarter get 2, an eighth get 4, ...), capped at
// maxB. This produces the "very different capabilities" regime the paper
// allows: the max/min cross-node ratio grows with n while every node keeps
// bin = bout (C = 1).
func Geometric(n, maxB int) (Profile, error) {
	if n <= 0 || maxB <= 0 {
		return Profile{}, fmt.Errorf("bandwidth: Geometric needs positive n and maxB")
	}
	in := make([]int, n)
	out := make([]int, n)
	idx := 0
	b := 1
	remaining := n
	for remaining > 0 {
		count := (remaining + 1) / 2
		if b >= maxB {
			b = maxB
			count = remaining
		}
		for j := 0; j < count; j++ {
			in[idx] = b
			out[idx] = b
			idx++
		}
		remaining -= count
		b *= 2
	}
	return Profile{In: in, Out: out}, nil
}

// skew returns base scaled by a uniform factor in [1/C, C], rounded to an
// int and clamped so that the node-local ratio constraint holds exactly.
func skew(base int, c float64, s *rng.Stream) int {
	if c == 1 {
		return base
	}
	// Sample the log of the factor uniformly so 1/C and C are symmetric.
	logC := math.Log(c)
	f := math.Exp((2*s.Float64() - 1) * logC)
	v := int(math.Round(float64(base) * f))
	lo := int(math.Ceil(float64(base) / c))
	hi := int(math.Floor(float64(base) * c))
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
