package graph

// Deterministic graph generators. Each derives its stream with
// rng.Derive(seed, rng.DomainGraph, tag, params...) and draws in one fixed
// order, so the same parameters and seed reproduce the same CSR bit for bit
// anywhere — generation never depends on worker or shard counts. The golden
// tests pin each generator's Digest at two sizes.

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Generator sub-tags under rng.DomainGraph, one per family, so the stream
// families of different generators stay disjoint even at equal parameters.
const (
	tagErdosRenyi uint64 = 1
	tagBarabasi   uint64 = 2
	tagPowerLaw   uint64 = 3
)

// Complete returns the complete graph on n nodes: every pair adjacent. It
// is the any-to-any rendezvous assumption expressed as a topology — the
// bridge between the graph-constrained protocols and the paper's original
// setting — and is O(n²) storage, so keep n modest.
func Complete(n int) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: complete graph needs n > 0, got %d", n)
	}
	g := &CSR{Off: make([]int32, n+1), Adj: make([]int32, n*(n-1))}
	w := int32(0)
	for i := 0; i < n; i++ {
		g.Off[i] = w
		for j := 0; j < n; j++ {
			if j != i {
				g.Adj[w] = int32(j)
				w++
			}
		}
	}
	g.Off[n] = w
	return g, nil
}

// RingLattice returns the ring lattice on n nodes where each node is
// adjacent to its k nearest neighbors on each side (degree 2k) — the
// regular, high-clustering baseline of the small-world literature. It is
// fully determined by (n, k); no randomness is drawn. Requires 2k < n so
// the 2k neighbors of a node are distinct.
func RingLattice(n, k int) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: ring lattice needs n > 0, got %d", n)
	}
	if k < 1 || k > (n-1)/2 { // 2k < n, without overflowing 2k
		return nil, fmt.Errorf("graph: ring lattice needs 1 <= k and 2k < n, got k=%d n=%d", k, n)
	}
	g := &CSR{Off: make([]int32, n+1), Adj: make([]int32, 2*k*n)}
	w := int32(0)
	for i := 0; i < n; i++ {
		g.Off[i] = w
		for d := -k; d <= k; d++ {
			if d == 0 {
				continue
			}
			g.Adj[w] = int32(((i+d)%n + n) % n)
			w++
		}
	}
	g.Off[n] = w
	sortRows(g)
	return g, nil
}

// ErdosRenyi returns a G(n, p) random graph: each of the n(n-1)/2 pairs is
// an edge independently with probability p. Pair enumeration uses the
// Batagelj–Brandes geometric skip, so generation is O(n + edges) — sparse
// million-node graphs in milliseconds — and draws one geometric variate per
// edge, in one fixed order.
func ErdosRenyi(n int, p float64, seed uint64) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: Erdős–Rényi needs n > 0, got %d", n)
	}
	if !(p >= 0 && p <= 1) { // also rejects NaN
		return nil, fmt.Errorf("graph: Erdős–Rényi needs p in [0,1], got %v", p)
	}
	if p == 1 {
		return Complete(n)
	}
	var ends []int32
	if p > 0 {
		s := rng.New(rng.Derive(seed, rng.DomainGraph, tagErdosRenyi, uint64(n), math.Float64bits(p)))
		logq := math.Log1p(-p)
		// Walk the strictly-lower-triangular pair sequence (v, w), w < v,
		// jumping ahead geometrically: after each edge, skip a number of
		// pairs distributed like the gap between successes of a Bernoulli(p)
		// sequence.
		v, w := 1, -1
		for v < n {
			// Geometric(p) >= 0, clamped past the last pair: a tiny p overflows int.
			skip := int(min(math.Log1p(-s.Float64())/logq, float64(n)*float64(n)))
			w += 1 + skip
			for w >= v && v < n {
				w -= v
				v++
			}
			if v < n {
				ends = append(ends, int32(v), int32(w))
			}
		}
	}
	return FromEdges(n, ends, false)
}

// BarabasiAlbert returns a preferential-attachment scale-free graph: nodes
// arrive one at a time and attach m edges to existing nodes chosen with
// probability proportional to current degree (the repeated-endpoints
// method), yielding the power-law degree distribution of social and P2P
// overlay measurements. The first m nodes are the initial core: node m
// attaches to all of them uniformly, seeding the degree counts. Requires
// 1 <= m < n.
func BarabasiAlbert(n, m int, seed uint64) (*CSR, error) {
	if m < 1 || m >= n {
		return nil, fmt.Errorf("graph: Barabási–Albert needs 1 <= m < n, got m=%d n=%d", m, n)
	}
	s := rng.New(rng.Derive(seed, rng.DomainGraph, tagBarabasi, uint64(n), uint64(m)))
	// repeated holds every edge endpoint once, edge by edge: sampling it
	// uniformly is sampling nodes proportional to degree, and it is the
	// endpoint list FromEdges builds the CSR from.
	repeated := make([]int32, 0, 2*m*(n-m))
	targets := make([]int32, m)
	for i := range targets {
		targets[i] = int32(i)
	}
	for t := m; t < n; t++ {
		for _, w := range targets {
			repeated = append(repeated, int32(t), w)
		}
		if t == n-1 {
			break
		}
		// Draw the next m distinct targets by rejection; duplicates re-draw,
		// which preserves the degree-proportional marginal over distinct
		// sets and keeps the draw order fixed.
		targets = targets[:0]
		for len(targets) < m {
			c := repeated[s.Intn(len(repeated))]
			dup := false
			for _, x := range targets {
				if x == c {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, c)
			}
		}
	}
	return FromEdges(n, repeated, false)
}

// PowerLaw returns a configuration-model graph with a truncated power-law
// degree sequence: node degrees are drawn iid from P(d) ∝ d^-exponent on
// [minDeg, maxDeg], stubs are shuffled and paired, and self-loops plus
// duplicate edges are discarded (the standard erased configuration model,
// so realized degrees can fall slightly below the drawn sequence). Unlike
// BarabasiAlbert the degree exponent is a free parameter, matching the
// scale-free-network spreading literature's γ knob. An exponent so large
// that minDeg^-exponent underflows to 0 (about 1075 at minDeg 2) is an
// error: no degree would have any weight.
func PowerLaw(n int, exponent float64, minDeg, maxDeg int, seed uint64) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: power law needs n > 0, got %d", n)
	}
	if minDeg < 1 || maxDeg < minDeg || maxDeg >= n {
		return nil, fmt.Errorf("graph: power law needs 1 <= minDeg <= maxDeg < n, got [%d,%d] n=%d", minDeg, maxDeg, n)
	}
	if !(exponent > 0) || math.IsInf(exponent, 1) { // also rejects NaN
		return nil, fmt.Errorf("graph: power law needs a finite exponent > 0, got %v", exponent)
	}
	// Inverse-CDF table over the truncated support: cheap (maxDeg entries)
	// and exact, so degree draws are one uniform plus a scan. The weights
	// fall with d: once one underflows to 0, every later one does too and
	// none of those degrees can be drawn, so the table stops there. If
	// minDeg's own weight underflows, no degree can be drawn at all.
	weights := make([]float64, 0, maxDeg-minDeg+1)
	total := 0.0
	for d := minDeg; d <= maxDeg; d++ {
		w := math.Pow(float64(d), -exponent)
		if w == 0 {
			break
		}
		weights = append(weights, w)
		total += w
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("graph: power law weight %d^-%v underflows to 0", minDeg, exponent)
	}
	s := rng.New(rng.Derive(seed, rng.DomainGraph, tagPowerLaw, uint64(n),
		math.Float64bits(exponent), uint64(minDeg), uint64(maxDeg)))
	stubs := make([]int32, 0, n*minDeg)
	for i := 0; i < n; i++ {
		x := s.Float64() * total
		// x can round up to total and outlast the scan: the last degree.
		d := minDeg + len(weights) - 1
		for k, w := range weights {
			x -= w
			if x < 0 {
				d = minDeg + k
				break
			}
		}
		for j := 0; j < d; j++ {
			stubs = append(stubs, int32(i))
		}
	}
	if len(stubs)%2 == 1 {
		// An odd stub count cannot pair; drop the last stub (one unit of
		// degree from the last node), the conventional fix.
		stubs = stubs[:len(stubs)-1]
	}
	for i := len(stubs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	// Consecutive shuffled stubs pair up: stubs is the endpoint list.
	return FromEdges(n, stubs, true)
}
