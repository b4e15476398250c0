// Package graph is the topology subsystem: compressed-sparse-row adjacency
// storage plus the deterministic generators and the uniform neighbor
// sampler the graph-constrained spreading protocols run on.
//
// Every protocol of the repository used to assume any-to-any rendezvous —
// the dating service addresses a partner drawn over all n peers. On a
// structured population contact is constrained to graph neighbors, which
// changes spreading dynamics qualitatively (Moreno, Nekovee & Pacheco,
// "Dynamics of Rumor Spreading in Complex Networks"). This package supplies
// the structure: a CSR holds the adjacency of n peers as two flat []int32
// arrays — the same flat-array style as the round engine — so a peer's
// neighborhood is one contiguous slice, a million-node power-law graph is a
// few dozen megabytes, and sampling a contact is one bounded draw over a
// row slice.
//
// While a graph is built, the generator's own flat endpoint list and the
// CSR are the only copies of its edges, and Validate allocates nothing.
//
// # Determinism
//
// Generators are pure functions of their parameters and a root seed: each
// derives its stream with rng.Derive(seed, rng.DomainGraph, tag, params...)
// and draws in one fixed order, so a graph is bit-identical wherever it is
// built — worker counts, shard counts and call sites are invisible. The
// generator golden tests pin CSR digests (Digest) at two sizes each.
package graph

import (
	"fmt"
	"slices"
)

// CSR is an undirected graph in compressed-sparse-row form: the neighbors
// of node i are Adj[Off[i]:Off[i+1]], sorted ascending. Both directions of
// every edge are stored, so len(Adj) is twice the edge count. The zero
// value is the empty graph; construct with a generator or FromEdges.
type CSR struct {
	Off []int32 // len n+1, ascending; Off[0] == 0
	Adj []int32 // concatenated neighbor rows
}

// N returns the node count.
func (g *CSR) N() int {
	if g == nil || len(g.Off) == 0 {
		return 0
	}
	return len(g.Off) - 1
}

// Edges returns the undirected edge count.
func (g *CSR) Edges() int {
	if g == nil {
		return 0
	}
	return len(g.Adj) / 2
}

// Degree returns node i's neighbor count.
func (g *CSR) Degree(i int) int { return int(g.Off[i+1] - g.Off[i]) }

// Neighbors returns node i's neighbor row. The slice aliases the CSR and
// must not be modified.
func (g *CSR) Neighbors(i int) []int32 { return g.Adj[g.Off[i]:g.Off[i+1]] }

// Hub returns the lowest-id node of maximum degree — the canonical
// hub-start seed of the spreading experiments — or -1 for an empty graph.
func (g *CSR) Hub() int {
	hub, best := -1, -1
	for i := 0; i < g.N(); i++ {
		if d := g.Degree(i); d > best {
			hub, best = i, d
		}
	}
	return hub
}

// Validate checks structural invariants without allocating: offsets from 0
// to len(Adj) that never decrease, all checked before any row is sliced, so
// a malformed CSR is an error and never a panic; neighbor ids in range; rows
// sorted with no self-loops or duplicates; and symmetric adjacency, by a
// binary search of row j for i. Validate guards hand-built graphs.
func (g *CSR) Validate() error {
	if g == nil || len(g.Off) == 0 {
		if g != nil && len(g.Adj) != 0 {
			return fmt.Errorf("graph: empty offsets with %d adjacency entries", len(g.Adj))
		}
		return nil
	}
	n := len(g.Off) - 1
	if g.Off[0] != 0 || int(g.Off[n]) != len(g.Adj) {
		return fmt.Errorf("graph: offsets span [%d,%d], adjacency has %d entries", g.Off[0], g.Off[n], len(g.Adj))
	}
	for i := 0; i < n; i++ {
		if g.Off[i] > g.Off[i+1] {
			return fmt.Errorf("graph: offsets decrease at node %d", i)
		}
	}
	for i := 0; i < n; i++ {
		row := g.Neighbors(i)
		for k, j := range row {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", i, j)
			}
			if int(j) == i {
				return fmt.Errorf("graph: node %d has a self-loop", i)
			}
			if k > 0 && row[k-1] >= j {
				return fmt.Errorf("graph: node %d row unsorted or duplicated at %d", i, j)
			}
		}
	}
	for i := 0; i < n; i++ {
		for _, j := range g.Neighbors(i) {
			if _, ok := slices.BinarySearch(g.Neighbors(int(j)), int32(i)); !ok {
				return fmt.Errorf("graph: edge %d-%d present in one direction only", i, j)
			}
		}
	}
	return nil
}

// Digest folds the CSR — node count, offsets and adjacency — into an
// FNV-1a 64 hex string. Two graphs agree on it iff they are identical, so
// the generator goldens and the cross-shard identity checks compare graphs
// by one line.
func (g *CSR) Digest() string {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= prime
		}
	}
	mix(uint64(g.N()))
	for _, v := range g.Off {
		mix(uint64(uint32(v)))
	}
	for _, v := range g.Adj {
		mix(uint64(uint32(v)))
	}
	return fmt.Sprintf("%016x", h)
}

// FromEdges builds a CSR from an undirected edge list of flat endpoint
// pairs: edge k is (ends[2k], ends[2k+1]), and an odd length is an error.
// Each edge becomes both a→b and b→a, rows come out sorted, and — with
// dedupe — duplicate edges and self-loops are discarded (the configuration
// model produces both). The build is a counting sort with Off as its fill
// cursor, so it is O(n + edges) and allocates nothing but the CSR.
func FromEdges(n int, ends []int32, dedupe bool) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	if len(ends)%2 != 0 {
		return nil, fmt.Errorf("graph: odd endpoint count %d", len(ends))
	}
	off := make([]int32, n+1)
	for k := 0; k < len(ends); k += 2 {
		a, b := ends[k], ends[k+1]
		if a < 0 || int(a) >= n || b < 0 || int(b) >= n {
			return nil, fmt.Errorf("graph: edge %d-%d out of range [0,%d)", a, b, n)
		}
		if a == b {
			if dedupe {
				continue
			}
			return nil, fmt.Errorf("graph: self-loop at node %d", a)
		}
		off[a+1]++
		off[b+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	g := &CSR{Off: off, Adj: make([]int32, off[n])}
	// off[a] walks row a from its start to its end, row a+1's start.
	for k := 0; k < len(ends); k += 2 {
		a, b := ends[k], ends[k+1]
		if a == b {
			continue
		}
		g.Adj[off[a]] = b
		off[a]++
		g.Adj[off[b]] = a
		off[b]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	sortRows(g)
	if dedupe {
		dedupeRows(g)
	} else {
		for i := 0; i < n; i++ {
			row := g.Neighbors(i)
			for k := 1; k < len(row); k++ {
				if row[k-1] == row[k] {
					return nil, fmt.Errorf("graph: duplicate edge %d-%d", i, row[k])
				}
			}
		}
	}
	return g, nil
}

// sortRows insertion-sorts each neighbor row in place. Rows are short for
// every generator (mean degree a small constant; even BA hubs are O(√n)),
// so insertion sort beats a comparison sort's overhead and allocates
// nothing.
func sortRows(g *CSR) {
	for i := 0; i < g.N(); i++ {
		row := g.Adj[g.Off[i]:g.Off[i+1]]
		for k := 1; k < len(row); k++ {
			v := row[k]
			j := k - 1
			for j >= 0 && row[j] > v {
				row[j+1] = row[j]
				j--
			}
			row[j+1] = v
		}
	}
}

// dedupeRows removes duplicate neighbors from the (sorted) rows, compacting
// Adj and Off in place in one pass; lo is row i's old start, and w <= k.
func dedupeRows(g *CSR) {
	n := g.N()
	w, lo := int32(0), int32(0)
	for i := 0; i < n; i++ {
		hi := g.Off[i+1]
		g.Off[i] = w
		for k := lo; k < hi; k++ {
			if k > lo && g.Adj[k-1] == g.Adj[k] {
				continue
			}
			g.Adj[w] = g.Adj[k]
			w++
		}
		lo = hi
	}
	g.Off[n] = w
	g.Adj = g.Adj[:w:w]
}
