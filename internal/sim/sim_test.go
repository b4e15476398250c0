package sim

import (
	"testing"

	"repro/internal/overlay"
	"repro/internal/rng"
)

func TestScaleNames(t *testing.T) {
	for _, sc := range []Scale{ScaleQuick, ScalePaper} {
		parsed, err := ParseScale(sc.String())
		if err != nil || parsed != sc {
			t.Fatalf("round-trip of %v failed: %v %v", sc, parsed, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("accepted unknown scale")
	}
	if got := Scale(9).String(); got != "scale(9)" {
		t.Errorf("String = %q", got)
	}
}

// script is a source that replays fixed values, for forcing collisions.
type script []uint64

func (v *script) Uint64() uint64 {
	x := (*v)[0]
	*v = (*v)[1:]
	return x
}

func (*script) Seed(uint64) {}

// TestChurnRingReplaceAndPick: E13's ring keeps its ids' positions
// pairwise distinct through many replacements; a redraw that hits another
// id's position is drawn again while one that hits the replaced id's own
// old position stands; and Pick returns the id whose arc holds the point,
// checked against a scan over the positions by id.
func TestChurnRingReplaceAndPick(t *testing.T) {
	const n = 64
	s := rng.New(3)
	c, err := newChurnRing(overlay.RandomPositions(n, s))
	if err != nil {
		t.Fatal(err)
	}
	old, other := c.pos[5], c.pos[9]
	forced := &script{other, old}
	c.replace(5, rng.NewWithSource(forced))
	if c.pos[5] != old || len(*forced) != 0 {
		t.Fatalf("redraw over [another id's, own old] position: at %#x with %d values left, want %#x and 0", c.pos[5], len(*forced), old)
	}
	forced = &script{other, other, 42}
	c.replace(5, rng.NewWithSource(forced))
	if c.pos[5] != 42 || c.pos[9] != other {
		t.Fatalf("redraw over another id's position twice: id 5 at %#x, id 9 at %#x", c.pos[5], c.pos[9])
	}

	for round := 0; round < 200; round++ {
		for k := 0; k < 8; k++ {
			c.replace(s.Intn(n), s)
		}
		if err := c.sort(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		held := map[uint64]bool{}
		for id, p := range c.pos {
			if held[p] {
				t.Fatalf("round %d: id %d shares position %#x", round, id, p)
			}
			held[p] = true
			// A point at a position is that id's: the arc ends there.
			if got := c.ids[c.ring.Owner(p)]; got != id {
				t.Fatalf("round %d: the point at id %d's position is owned by id %d", round, id, got)
			}
		}
		seed := s.Uint64()
		picks, points := rng.New(seed), rng.New(seed)
		for k := 0; k < 50; k++ {
			got, x := c.Pick(picks), points.Uint64()
			// The owner is the id at the least clockwise distance from x.
			want := 0
			for id, p := range c.pos {
				if p-x < c.pos[want]-x {
					want = id
				}
			}
			if got != want {
				t.Fatalf("round %d: Pick gave id %d for point %#x, the scan %d", round, got, x, want)
			}
		}
	}
}
