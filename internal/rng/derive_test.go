package rng

import "testing"

func TestDeriveDeterministic(t *testing.T) {
	if Derive(42, 1, 2) != Derive(42, 1, 2) {
		t.Fatal("Derive is not a pure function")
	}
	if Derive(42) != Derive(42) {
		t.Fatal("Derive with no indices is not a pure function")
	}
}

func TestDeriveSeparatesCoordinates(t *testing.T) {
	// Distinct coordinates — including transposed ones — must yield distinct
	// seeds: the harness relies on Derive(seed, overlay, rep) giving every
	// job its own stream.
	seen := map[uint64][2]uint64{}
	for a := uint64(0); a < 64; a++ {
		for b := uint64(0); b < 64; b++ {
			v := Derive(7, a, b)
			if prev, dup := seen[v]; dup {
				t.Fatalf("Derive(7, %d, %d) == Derive(7, %d, %d)", a, b, prev[0], prev[1])
			}
			seen[v] = [2]uint64{a, b}
		}
	}
	if Derive(7, 1, 2) == Derive(7, 2, 1) {
		t.Fatal("Derive ignores index order")
	}
	if Derive(7, 1) == Derive(8, 1) {
		t.Fatal("Derive ignores the root seed")
	}
}

func TestDeriveSeedsPassRoughUniformity(t *testing.T) {
	// Streams seeded from adjacent Derive outputs should look independent: a
	// crude bucket test over the first draw of each derived stream.
	const streams, buckets = 4096, 16
	var counts [buckets]int
	for i := 0; i < streams; i++ {
		s := New(Derive(99, uint64(i)))
		counts[s.Intn(buckets)]++
	}
	want := streams / buckets
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("bucket %d has %d of %d draws (expected ~%d)", b, c, streams, want)
		}
	}
}

func TestAbsorbExtendsDerive(t *testing.T) {
	// Absorb is Derive's own step: a chain of any length can be cut anywhere.
	idx := []uint64{3, 0, 1 << 63, 17, 17}
	for cut := 0; cut <= len(idx); cut++ {
		got := Derive(42, idx[:cut]...)
		for _, v := range idx[cut:] {
			got = Absorb(got, v)
		}
		if want := Derive(42, idx...); got != want {
			t.Fatalf("prefix of %d indices then Absorb = %#x, Derive of the whole chain = %#x", cut, got, want)
		}
	}
}

// FuzzDeriveChain pins the hoisted form the round engine uses: a two-step
// prefix computed once, then one Absorb per unit of work.
func FuzzDeriveChain(f *testing.F) {
	f.Add(uint64(42), uint64(1), uint64(7))
	f.Add(uint64(0), uint64(2), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed, a, b uint64) {
		if got, want := Absorb(Derive(seed, a), b), Derive(seed, a, b); got != want {
			t.Fatalf("Absorb(Derive(%d, %d), %d) = %#x, Derive(%d, %d, %d) = %#x", seed, a, b, got, seed, a, b, want)
		}
	})
}
