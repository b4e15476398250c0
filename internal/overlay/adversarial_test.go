package overlay

import (
	"testing"

	"repro/internal/rng"
)

// Adversarial ring layouts: routing must stay correct (if not fast) when
// positions are clustered, colinear, or degenerate — configurations a real
// deployment can hit when identifiers are assigned poorly.

func clusteredRing(t *testing.T, n int, span uint64) *Ring {
	t.Helper()
	// All nodes packed into [base, base+span).
	base := uint64(1) << 62
	pos := make([]uint64, n)
	for i := range pos {
		pos[i] = base + uint64(i)*(span/uint64(n))
	}
	r, err := RingFromPositions(pos)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLookupOnClusteredRing(t *testing.T) {
	// 64 nodes squeezed into a 2^-40 fraction of the ring: almost every
	// target lands in the giant empty arc owned by the first node.
	r := clusteredRing(t, 64, 1<<24)
	s := rng.New(1)
	for i := 0; i < 500; i++ {
		from := s.Intn(r.N())
		x := s.Uint64()
		owner, hops := r.Lookup(from, x)
		if owner != r.Owner(x) {
			t.Fatalf("clustered Lookup wrong: %d vs %d", owner, r.Owner(x))
		}
		if hops > r.N() {
			t.Fatalf("clustered Lookup took %d hops", hops)
		}
	}
}

func TestLookupCDOnClusteredRing(t *testing.T) {
	r := clusteredRing(t, 64, 1<<24)
	s := rng.New(2)
	for i := 0; i < 500; i++ {
		from := s.Intn(r.N())
		x := s.Uint64()
		owner, hops := r.LookupCD(from, x)
		if owner != r.Owner(x) {
			t.Fatalf("clustered LookupCD wrong: %d vs %d", owner, r.Owner(x))
		}
		// The CD final correction walks node-distance; on a clustered ring
		// it must pick the short direction, keeping hops bounded by the
		// walk length plus half the ring.
		if hops > 64+r.N()/2+2 {
			t.Fatalf("clustered LookupCD took %d hops", hops)
		}
	}
}

func TestClusteredIntervalWeights(t *testing.T) {
	// One node owns essentially the whole circle.
	r := clusteredRing(t, 16, 1<<20)
	w := r.IntervalWeights()
	var maxW float64
	for _, v := range w {
		if v > maxW {
			maxW = v
		}
	}
	if maxW < 0.999 {
		t.Fatalf("expected a dominant arc, max weight %v", maxW)
	}
	// The dominant owner is rank 0 (first node after the huge gap).
	if w[0] != maxW {
		t.Fatalf("dominant arc at wrong rank: %v", w[:3])
	}
}

func TestTwoNodeRingRouting(t *testing.T) {
	r, err := RingFromPositions([]uint64{1 << 20, 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(3)
	for i := 0; i < 200; i++ {
		x := s.Uint64()
		want := r.Owner(x)
		for from := 0; from < 2; from++ {
			if got, _ := r.Lookup(from, x); got != want {
				t.Fatalf("2-node Lookup(%d) wrong", from)
			}
			if got, _ := r.LookupCD(from, x); got != want {
				t.Fatalf("2-node LookupCD(%d) wrong", from)
			}
		}
	}
}

func TestSingleNodeRing(t *testing.T) {
	r, err := RingFromPositions([]uint64{42})
	if err != nil {
		t.Fatal(err)
	}
	if owner, hops := r.Lookup(0, 7); owner != 0 || hops != 0 {
		t.Fatalf("single-node Lookup = (%d, %d)", owner, hops)
	}
	if owner, hops := r.LookupCD(0, 7); owner != 0 || hops != 0 {
		t.Fatalf("single-node LookupCD = (%d, %d)", owner, hops)
	}
	w := r.IntervalWeights()
	if len(w) != 1 || w[0] != 1 {
		t.Fatalf("single-node weights %v", w)
	}
}

func TestExtremePositionsRouting(t *testing.T) {
	// Nodes at 0, 1, and the top of the ring: wraparound arithmetic edges.
	r, err := RingFromPositions([]uint64{0, 1, ^uint64(0)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {^uint64(0), 2}, {^uint64(0) - 1, 2},
	}
	s := rng.New(4)
	for _, c := range cases {
		if got := r.Owner(c.x); got != c.want {
			t.Fatalf("Owner(%d) = %d, want %d", c.x, got, c.want)
		}
		from := s.Intn(3)
		if got, _ := r.Lookup(from, c.x); got != c.want {
			t.Fatalf("Lookup(%d, %d) = %d, want %d", from, c.x, got, c.want)
		}
		if got, _ := r.LookupCD(from, c.x); got != c.want {
			t.Fatalf("LookupCD(%d, %d) = %d, want %d", from, c.x, got, c.want)
		}
	}
}

func TestJoinShiftsOwnership(t *testing.T) {
	// After a join, exactly the new node's arc changes owner.
	s := rng.New(5)
	r, err := NewRing(32, s)
	if err != nil {
		t.Fatal(err)
	}
	// Insert halfway into rank 10's arc.
	pred := r.pos[9]
	target := r.pos[10]
	mid := pred + (target-pred)/2
	pos := []uint64{mid}
	for rank := 0; rank < r.N(); rank++ {
		pos = append(pos, r.pos[rank])
	}
	r2, err := RingFromPositions(pos)
	if err != nil {
		t.Fatal(err)
	}
	// Points below mid now belong to the new node; points above keep their
	// old (shifted-rank) owner.
	if r2.Owner(mid-1) != 10 { // new node sits at rank 10
		t.Fatalf("pre-mid point owned by %d", r2.Owner(mid-1))
	}
	if r2.Owner(mid+1) != 11 { // old rank-10 node shifted to 11
		t.Fatalf("post-mid point owned by %d", r2.Owner(mid+1))
	}
}
