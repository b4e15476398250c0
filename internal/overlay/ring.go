// Package overlay implements the DHT substrate proposed in Section 4 of the
// paper as the practical foundation of the dating service.
//
// Nodes are placed uniformly at random on a ring; each node is responsible
// for the arc between its predecessor and itself. Sending a dating request
// "to the node responsible for a uniform value x" therefore selects nodes
// with probability equal to their arc length — a distribution that is far
// from uniform (arc lengths range from O(1/n^2) to Omega(log n / n)) but
// identical for every requester, which is all the dating service needs.
//
// Two routing schemes are provided: Chord-style finger routing [SMK+01] and
// the Naor–Wieder continuous–discrete distance-halving scheme [NW03b]. Both
// resolve lookups in O(log n) hops. The Chord hop count sets the message
// latency under which experiment E7 measures the handshake's pipelining:
// k dating rounds take Theta(log n + k) network ticks, not Theta(k log n).
//
// The ring uses 64-bit fixed-point positions: the unit interval (0,1] is
// mapped to the full uint64 range, so arithmetic wraps naturally.
package overlay

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rng"
)

// Ring is a DHT ring with n nodes at fixed random positions. Node identity
// is the rank in position-sorted order (rank r is the r-th node clockwise).
// The owner of a point x is the first node at or after x (Chord convention:
// successor(x)); its arc is (predecessor position, own position].
type Ring struct {
	pos         []uint64  // sorted node positions
	fingers     [][]int   // fingers[r] = ranks of r's routing neighbors (dedup)
	fingersOnce sync.Once // builds fingers on the first Fingers or Lookup
}

// NewRing places n > 0 nodes uniformly at random on the ring, at
// RandomPositions(n, s).
func NewRing(n int, s *rng.Stream) (*Ring, error) {
	return RingFromPositions(RandomPositions(n, s))
}

// RandomPositions draws n pairwise distinct uniform ring positions (none
// for n <= 0), in draw order. Position collisions (probability
// ~n^2/2^64) are resolved by resampling.
func RandomPositions(n int, s *rng.Stream) []uint64 {
	pos := make([]uint64, max(n, 0))
	seen := make(map[uint64]bool, n)
	for i := range pos {
		for {
			p := s.Uint64()
			if !seen[p] {
				seen[p] = true
				pos[i] = p
				break
			}
		}
	}
	return pos
}

// RingFromPositions builds a ring from explicit positions, which must be
// non-empty and pairwise distinct. The slice is copied.
func RingFromPositions(positions []uint64) (*Ring, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("overlay: ring needs at least one position")
	}
	pos := append([]uint64(nil), positions...)
	sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
	for i := 1; i < len(pos); i++ {
		if pos[i] == pos[i-1] {
			return nil, fmt.Errorf("overlay: duplicate position %d", pos[i])
		}
	}
	return &Ring{pos: pos}, nil
}

// N returns the number of nodes.
func (r *Ring) N() int { return len(r.pos) }

// Position returns the ring position of the node with the given rank.
func (r *Ring) Position(rank int) uint64 { return r.pos[rank] }

// Successor returns the rank of the node clockwise-after rank.
func (r *Ring) Successor(rank int) int { return (rank + 1) % len(r.pos) }

// Predecessor returns the rank of the node clockwise-before rank.
func (r *Ring) Predecessor(rank int) int { return (rank - 1 + len(r.pos)) % len(r.pos) }

// Owner returns the rank of the node responsible for point x: the first
// node at or after x, wrapping past the top of the ring.
func (r *Ring) Owner(x uint64) int {
	i := sort.Search(len(r.pos), func(i int) bool { return r.pos[i] >= x })
	if i == len(r.pos) {
		return 0
	}
	return i
}

// PickOwner samples the DHT selection distribution: the owner of a point
// drawn uniformly at random. This is exactly how a node addresses a dating
// request in the DHT-based service.
func (r *Ring) PickOwner(s *rng.Stream) int { return r.Owner(s.Uint64()) }

// IntervalWeights returns each node's arc length as a fraction of the ring,
// indexed by rank. The weights sum to 1 (up to float rounding) and define
// the selection distribution induced by the DHT.
func (r *Ring) IntervalWeights() []float64 {
	n := len(r.pos)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		prev := r.pos[(i-1+n)%n]
		w[i] = float64(r.pos[i]-prev) / (1 << 63) / 2
	}
	if n == 1 {
		w[0] = 1
	}
	return w
}

// MaxInterval returns the largest arc weight; MinInterval the smallest.
// For uniform random positions these are Theta(log n / n) and Theta(1/n^2)
// respectively, the spread quoted in the paper.
func (r *Ring) MaxInterval() float64 {
	w := r.IntervalWeights()
	m := w[0]
	for _, v := range w {
		if v > m {
			m = v
		}
	}
	return m
}

// MinInterval returns the smallest arc weight.
func (r *Ring) MinInterval() float64 {
	w := r.IntervalWeights()
	m := w[0]
	for _, v := range w {
		if v < m {
			m = v
		}
	}
	return m
}

// buildFingers constructs Chord finger tables: node r links to
// successor(pos_r + 2^k) for k = 0..63, with duplicates removed.
func (r *Ring) buildFingers() {
	n := len(r.pos)
	r.fingers = make([][]int, n)
	for rank := 0; rank < n; rank++ {
		var f []int
		last := -1
		for k := 0; k < 64; k++ {
			target := r.pos[rank] + 1<<uint(k) // wraps mod 2^64
			owner := r.Owner(target)
			if owner != last && owner != rank {
				f = append(f, owner)
				last = owner
			}
		}
		r.fingers[rank] = f
	}
}

// Fingers returns the routing neighbors of the given rank. The slice must
// not be modified.
func (r *Ring) Fingers(rank int) []int {
	r.fingersOnce.Do(r.buildFingers)
	return r.fingers[rank]
}

// dist returns the clockwise distance from a to b on the ring.
func dist(a, b uint64) uint64 { return b - a } // uint64 wraparound does the mod

// Lookup routes from the node with rank `from` to the owner of x using
// Chord greedy finger routing, returning the owner's rank and the number of
// hops (edges traversed). A lookup resolved locally costs zero hops.
func (r *Ring) Lookup(from int, x uint64) (owner, hops int) {
	cur := from
	n := len(r.pos)
	if n == 1 {
		return 0, 0
	}
	r.fingersOnce.Do(r.buildFingers)
	for {
		succ := r.Successor(cur)
		// x in (pos[cur], pos[succ]] means succ owns x.
		if cur != succ && dist(r.pos[cur], x) != 0 && dist(r.pos[cur], x) <= dist(r.pos[cur], r.pos[succ]) {
			return succ, hops + 1
		}
		if r.pos[cur] == x {
			return cur, hops
		}
		// Closest preceding finger: the finger whose position is nearest to
		// x while remaining strictly inside (pos[cur], x).
		best := -1
		var bestDist uint64
		target := dist(r.pos[cur], x)
		for _, f := range r.fingers[cur] {
			d := dist(r.pos[cur], r.pos[f])
			if d > 0 && d < target && d > bestDist {
				best = f
				bestDist = d
			}
		}
		if best == -1 {
			// No finger strictly precedes x: fall through to successor.
			best = succ
		}
		cur = best
		hops++
	}
}

// LookupCD routes using the Naor–Wieder continuous–discrete distance-
// halving scheme. The continuous walk z' = z/2 + b/2 applies the target's
// top-L bits from the L-th most significant up to the most significant, so
// that after L = ceil(log2 n) + 2 steps the walk sits within 2^-L of the
// target; each continuous point is emulated by the node owning it, and a
// final short neighbor walk closes the residual gap. Returns the owner of x
// and the hop count.
func (r *Ring) LookupCD(from int, x uint64) (owner, hops int) {
	n := len(r.pos)
	if n == 1 {
		return 0, 0
	}
	// L = ceil(log2 n) + 2 extra bits so the final gap (about 2^-L) is well
	// below the mean arc length 1/n.
	l := 2
	for v := 1; v < n; v <<= 1 {
		l++
	}
	if l > 64 {
		l = 64
	}
	z := r.pos[from]
	cur := from
	// Step s applies bit index 63-l+s of x (s = 1..l): the (l-s+1)-th most
	// significant bit, so the MSB is applied last and z converges to x's
	// l-bit prefix.
	for s := 1; s <= l; s++ {
		bit := (x >> uint(63-l+s)) & 1
		z = z>>1 | bit<<63
		next := r.Owner(z)
		if next != cur {
			cur = next
			hops++
		}
	}
	// The walk lands within a couple of arcs of the owner; close the gap
	// via neighbor pointers in whichever ring direction is shorter.
	want := r.Owner(x)
	forward := (want - cur + n) % n
	backward := (cur - want + n) % n
	if forward <= backward {
		hops += forward
	} else {
		hops += backward
	}
	return want, hops
}

// AvgLookupHops estimates the mean hop count of the given lookup function
// over `samples` random (source, target) pairs.
func (r *Ring) AvgLookupHops(s *rng.Stream, samples int, lookup func(from int, x uint64) (int, int)) float64 {
	if samples <= 0 {
		return 0
	}
	total := 0
	for i := 0; i < samples; i++ {
		from := s.Intn(len(r.pos))
		_, h := lookup(from, s.Uint64())
		total += h
	}
	return float64(total) / float64(samples)
}
