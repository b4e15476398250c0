package graph

// The neighbor sampler: the Pick counterpart of core.Selector, restricted
// to a CSR row. Where the any-to-any protocols draw a partner over all n
// peers, a graph-constrained peer draws uniformly over its neighbor slice.

import (
	"fmt"

	"repro/internal/rng"
)

// UniformNeighbors samples neighbors uniformly — the classic contact model
// of the rumor-spreading-on-networks literature. It is immutable after
// construction and safe for concurrent Pick calls with per-caller streams,
// matching the core.Selector contract.
type UniformNeighbors struct{ g *CSR }

// NewUniformNeighbors returns the uniform sampler over g's rows.
func NewUniformNeighbors(g *CSR) (UniformNeighbors, error) {
	if g.N() == 0 {
		return UniformNeighbors{}, fmt.Errorf("graph: sampler needs a non-empty graph")
	}
	return UniformNeighbors{g: g}, nil
}

// Pick returns a uniformly drawn neighbor of node i, or -1 when i has no
// neighbors.
func (u UniformNeighbors) Pick(i int, s *rng.Stream) int {
	row := u.g.Neighbors(i)
	if len(row) == 0 {
		return -1
	}
	return int(row[s.Intn(len(row))])
}
