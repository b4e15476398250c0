package overlay

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(0, rng.New(1)); err == nil {
		t.Error("accepted n = 0")
	}
	if _, err := RingFromPositions(nil); err == nil {
		t.Error("accepted empty positions")
	}
	if _, err := RingFromPositions([]uint64{5, 5}); err == nil {
		t.Error("accepted duplicate positions")
	}
}

func TestRingSortedAndSized(t *testing.T) {
	r, err := NewRing(100, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 100 {
		t.Fatalf("N = %d", r.N())
	}
	for i := 1; i < r.N(); i++ {
		if r.pos[i] <= r.pos[i-1] {
			t.Fatal("positions not strictly sorted")
		}
	}
}

func TestOwnerMatchesLinearScan(t *testing.T) {
	positions := []uint64{100, 500, 1000, ^uint64(0) - 10}
	r, err := RingFromPositions(positions)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    uint64
		want int
	}{
		{0, 0},   // before first node
		{100, 0}, // exactly on a node
		{101, 1}, // just after
		{500, 1},
		{750, 2},
		{1000, 2},
		{1001, 3},
		{^uint64(0) - 10, 3},
		{^uint64(0), 0}, // wraps to first node
	}
	for _, c := range cases {
		if got := r.Owner(c.x); got != c.want {
			t.Errorf("Owner(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestIntervalWeightsSumToOne(t *testing.T) {
	for _, n := range []int{1, 2, 10, 1000} {
		r, err := NewRing(n, rng.New(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		w := r.IntervalWeights()
		var sum float64
		for _, v := range w {
			if v < 0 {
				t.Fatalf("negative weight %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("n=%d: weights sum to %v", n, sum)
		}
	}
}

func TestIntervalWeightsMatchPickOwner(t *testing.T) {
	r, _ := NewRing(8, rng.New(3))
	w := r.IntervalWeights()
	s := rng.New(4)
	const draws = 200000
	counts := make([]int, 8)
	for i := 0; i < draws; i++ {
		counts[r.PickOwner(s)]++
	}
	for rank, want := range w {
		got := float64(counts[rank]) / draws
		if math.Abs(got-want) > 0.05*want+0.002 {
			t.Errorf("rank %d: empirical %v, weight %v", rank, got, want)
		}
	}
}

func TestIntervalSpread(t *testing.T) {
	// With n uniform points the max arc is Theta(log n / n) and the min arc
	// Theta(1/n^2); check loose versions of both bounds.
	const n = 10000
	r, _ := NewRing(n, rng.New(99))
	w := r.IntervalWeights()
	maxW, minW := slices.Max(w), slices.Min(w)
	logn := math.Log(float64(n))
	if maxW < logn/float64(n)/4 || maxW > 4*logn/float64(n) {
		t.Errorf("max interval %v, want about log n/n = %v", maxW, logn/float64(n))
	}
	if minW > 10/float64(n)/float64(n)*float64(n) { // min << 1/n
		t.Errorf("min interval %v not far below 1/n", minW)
	}
	if minW <= 0 {
		t.Errorf("min interval must be positive, got %v", minW)
	}
}

func TestLookupFindsOwner(t *testing.T) {
	r, _ := NewRing(256, rng.New(5))
	s := rng.New(6)
	for i := 0; i < 2000; i++ {
		from := s.Intn(r.N())
		x := s.Uint64()
		owner, hops := r.Lookup(from, x)
		if owner != r.Owner(x) {
			t.Fatalf("Lookup(%d, %d) = %d, want %d", from, x, owner, r.Owner(x))
		}
		if hops < 0 || hops > r.N() {
			t.Fatalf("absurd hop count %d", hops)
		}
	}
}

func TestLookupCDFindsOwner(t *testing.T) {
	r, _ := NewRing(256, rng.New(8))
	s := rng.New(9)
	for i := 0; i < 2000; i++ {
		from := s.Intn(r.N())
		x := s.Uint64()
		owner, hops := r.LookupCD(from, x)
		if owner != r.Owner(x) {
			t.Fatalf("LookupCD(%d, %d) = %d, want %d", from, x, owner, r.Owner(x))
		}
		if hops < 0 || hops > 3*64 {
			t.Fatalf("absurd CD hop count %d", hops)
		}
	}
}

func TestLookupSelfOwned(t *testing.T) {
	r, _ := NewRing(64, rng.New(10))
	// Looking up a point exactly at a node's own position terminates with
	// that node as owner.
	for rank := 0; rank < r.N(); rank++ {
		owner, _ := r.Lookup(rank, r.pos[rank])
		if owner != rank {
			t.Fatalf("Lookup(self position): owner %d, want %d", owner, rank)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	s := rng.New(11)
	var hops []float64
	ns := []int{64, 256, 1024, 4096}
	for _, n := range ns {
		r, err := NewRing(n, rng.New(s.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		avg := r.AvgLookupHops(s, 500, r.Lookup)
		hops = append(hops, avg)
		// Chord resolves in about (1/2) log2 n hops on average; allow a wide
		// band around that.
		log2n := math.Log2(float64(n))
		if avg > 2*log2n {
			t.Errorf("n=%d: avg hops %.2f exceeds 2*log2(n)=%.2f", n, avg, 2*log2n)
		}
		if avg < 0.2*log2n {
			t.Errorf("n=%d: avg hops %.2f suspiciously low", n, avg)
		}
	}
	// Hops must grow with n, and sublinearly.
	for i := 1; i < len(hops); i++ {
		if hops[i] <= hops[i-1] {
			t.Errorf("avg hops not increasing: %v", hops)
		}
	}
	if hops[len(hops)-1] > hops[0]*8 {
		t.Errorf("hop growth looks superlogarithmic: %v", hops)
	}
}

func TestLookupCDHopsLogarithmic(t *testing.T) {
	s := rng.New(12)
	for _, n := range []int{64, 1024} {
		r, err := NewRing(n, rng.New(s.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		avg := r.AvgLookupHops(s, 500, r.LookupCD)
		log2n := math.Log2(float64(n))
		// The CD walk takes about log2(n)+2 emulated steps plus a short
		// correction; allow [0.5, 3] x log2 n.
		if avg > 3*log2n || avg < 0.5*log2n {
			t.Errorf("n=%d: CD avg hops %.2f outside [0.5,3]*log2n (%.2f)", n, avg, log2n)
		}
	}
}

// fingersOf returns the routing neighbors of the given rank. The slice must
// not be modified.
func (r *Ring) fingersOf(rank int) []int {
	r.fingersOnce.Do(r.buildFingers)
	return r.fingers[rank]
}

func TestFingersExcludeSelfAndAreValid(t *testing.T) {
	r, _ := NewRing(128, rng.New(13))
	for rank := 0; rank < r.N(); rank++ {
		f := r.fingersOf(rank)
		if len(f) == 0 {
			t.Fatalf("rank %d has no fingers", rank)
		}
		if len(f) > 64 {
			t.Fatalf("rank %d has %d fingers", rank, len(f))
		}
		for _, g := range f {
			if g == rank {
				t.Fatalf("rank %d lists itself as a finger", rank)
			}
			if g < 0 || g >= r.N() {
				t.Fatalf("rank %d has invalid finger %d", rank, g)
			}
		}
	}
}

func TestFingerCountLogarithmic(t *testing.T) {
	r, _ := NewRing(1024, rng.New(14))
	total := 0
	for rank := 0; rank < r.N(); rank++ {
		total += len(r.fingersOf(rank))
	}
	avg := float64(total) / float64(r.N())
	if avg < 5 || avg > 30 {
		t.Fatalf("avg finger count %.1f, want ~log2(1024)=10 within [5,30]", avg)
	}
}

func TestOwnerPropertyAgainstSort(t *testing.T) {
	// Property: Owner(x) is the first sorted position >= x, wrapping.
	err := quick.Check(func(seed uint64, xs []uint64, probe uint64) bool {
		if len(xs) == 0 {
			return true
		}
		// Dedupe.
		set := map[uint64]bool{}
		var uniq []uint64
		for _, x := range xs {
			if !set[x] {
				set[x] = true
				uniq = append(uniq, x)
			}
		}
		r, err := RingFromPositions(uniq)
		if err != nil {
			return false
		}
		sorted := append([]uint64(nil), uniq...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		want := 0
		found := false
		for i, p := range sorted {
			if p >= probe {
				want = i
				found = true
				break
			}
		}
		if !found {
			want = 0
		}
		return r.Owner(probe) == want
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLookupPropertyAllPairs(t *testing.T) {
	// Exhaustive check on a small ring: every (from, target bucket) pair
	// resolves to the true owner under both routing schemes.
	r, _ := NewRing(23, rng.New(15))
	for from := 0; from < r.N(); from++ {
		for k := 0; k < 64; k += 3 {
			x := uint64(1) << uint(k)
			want := r.Owner(x)
			if got, _ := r.Lookup(from, x); got != want {
				t.Fatalf("Lookup(%d, 2^%d) = %d, want %d", from, k, got, want)
			}
			if got, _ := r.LookupCD(from, x); got != want {
				t.Fatalf("LookupCD(%d, 2^%d) = %d, want %d", from, k, got, want)
			}
		}
	}
}
