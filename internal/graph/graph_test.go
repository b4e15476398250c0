package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// TestGraphGeneratorGoldens pins the FNV digest of every generator at two
// sizes. Generators are pure functions of (seed, parameters) — the
// repository's determinism story for topology — so any digest drift here
// means spreading results on generated graphs silently changed too.
func TestGraphGeneratorGoldens(t *testing.T) {
	cases := []struct {
		name string
		gen  func() (*CSR, error)
		want string
	}{
		{"ring-64-2", func() (*CSR, error) { return RingLattice(64, 2) }, ""},
		{"ring-1000-3", func() (*CSR, error) { return RingLattice(1000, 3) }, ""},
		{"complete-16", func() (*CSR, error) { return Complete(16) }, ""},
		{"complete-128", func() (*CSR, error) { return Complete(128) }, ""},
		{"er-100-0.1", func() (*CSR, error) { return ErdosRenyi(100, 0.1, 42) }, ""},
		{"er-2000-0.004", func() (*CSR, error) { return ErdosRenyi(2000, 0.004, 42) }, ""},
		{"ba-100-2", func() (*CSR, error) { return BarabasiAlbert(100, 2, 42) }, ""},
		{"ba-2000-3", func() (*CSR, error) { return BarabasiAlbert(2000, 3, 42) }, ""},
		{"pl-100-2.5", func() (*CSR, error) { return PowerLaw(100, 2.5, 2, 20, 42) }, ""},
		{"pl-2000-2.5", func() (*CSR, error) { return PowerLaw(2000, 2.5, 2, 80, 42) }, ""},
	}
	golden := map[string]string{
		"ring-64-2":     "3070bf4de3f691ca",
		"ring-1000-3":   "33758527354ab7f1",
		"complete-16":   "519e2510e9ea6275",
		"complete-128":  "b88ba0e1877620e5",
		"er-100-0.1":    "f2297298501115c8",
		"er-2000-0.004": "f2ef4d9a747f08e2",
		"ba-100-2":      "70f55a668a9a2089",
		"ba-2000-3":     "23ecc8bba5d25efe",
		"pl-100-2.5":    "e746a6ca450a44b5",
		"pl-2000-2.5":   "a910d9d78811dba3",
	}
	for _, c := range cases {
		g, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: invalid CSR: %v", c.name, err)
		}
		got := g.Digest()
		if want := golden[c.name]; got != want {
			t.Errorf("%s: digest %s, want %s", c.name, got, want)
		}
		// Re-generating must reproduce the graph bit for bit.
		g2, err := c.gen()
		if err != nil {
			t.Fatalf("%s: regenerate: %v", c.name, err)
		}
		if g2.Digest() != got {
			t.Errorf("%s: regeneration drifted: %s vs %s", c.name, g2.Digest(), got)
		}
	}
}

func TestGraphSeedsDisjoint(t *testing.T) {
	a, err := BarabasiAlbert(500, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BarabasiAlbert(500, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() == b.Digest() {
		t.Fatal("different seeds produced identical BA graphs")
	}
}

func TestGraphShapes(t *testing.T) {
	g, err := RingLattice(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if g.Degree(i) != 4 {
			t.Fatalf("ring node %d degree %d, want 4", i, g.Degree(i))
		}
	}
	c, err := Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Edges() != 21 {
		t.Fatalf("K7 has %d edges, want 21", c.Edges())
	}
	ba, err := BarabasiAlbert(300, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ba.Edges(), 3*(300-3); got != want {
		t.Fatalf("BA(300,3) has %d edges, want %d", got, want)
	}
	if hub := ba.Hub(); ba.Degree(hub) < 10 {
		t.Fatalf("BA hub degree %d suspiciously small", ba.Degree(hub))
	}
	pl, err := PowerLaw(400, 2.5, 2, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pl.N(); i++ {
		if pl.Degree(i) > 30 {
			t.Fatalf("power-law node %d degree %d exceeds cap", i, pl.Degree(i))
		}
	}
}

func TestGraphGeneratorErrors(t *testing.T) {
	if _, err := RingLattice(4, 2); err == nil {
		t.Error("RingLattice(4,2) should reject 2k >= n")
	}
	if _, err := ErdosRenyi(10, 1.5, 0); err == nil {
		t.Error("ErdosRenyi should reject p > 1")
	}
	if _, err := BarabasiAlbert(5, 5, 0); err == nil {
		t.Error("BarabasiAlbert should reject m >= n")
	}
	if _, err := PowerLaw(10, 2.0, 2, 10, 0); err == nil {
		t.Error("PowerLaw should reject maxDeg >= n")
	}
	if _, err := FromEdges(3, []int32{0, 3}, false); err == nil {
		t.Error("FromEdges should reject out-of-range endpoints")
	}
	if _, err := FromEdges(3, []int32{1, 1}, false); err == nil {
		t.Error("FromEdges should reject self-loops without dedupe")
	}
	if _, err := FromEdges(3, []int32{0, 1, 1, 0}, false); err == nil {
		t.Error("FromEdges should reject duplicate edges without dedupe")
	}
	if _, err := FromEdges(3, []int32{0, 1, 2}, false); err == nil {
		t.Error("FromEdges should reject an odd endpoint count")
	}
}

// TestGeneratorsRejectNonFinite pins that a NaN or infinite parameter is an
// error. NaN passes every comparison-based range check, so ErdosRenyi once
// returned an empty graph for p = NaN, and PowerLaw gave every node maxDeg
// for a NaN or +Inf exponent.
func TestGeneratorsRejectNonFinite(t *testing.T) {
	if _, err := ErdosRenyi(100, math.NaN(), 1); err == nil {
		t.Error("ErdosRenyi should reject p = NaN")
	}
	for _, e := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := PowerLaw(100, e, 2, 20, 1); err == nil {
			t.Errorf("PowerLaw should reject exponent %v", e)
		}
	}
}

// TestPowerLawRejectsUnderflow pins that an exponent under which every
// weight d^-exponent underflows is an error. The inverse-CDF scan then never
// went below zero, and every node got maxDeg. One step short of the
// underflow, the largest weight is still positive and every draw is minDeg.
func TestPowerLawRejectsUnderflow(t *testing.T) {
	for _, e := range []float64{1075, 1e6} {
		if _, err := PowerLaw(100, e, 2, 20, 1); err == nil {
			t.Errorf("PowerLaw should reject exponent %v at minDeg 2", e)
		}
	}
	g, err := PowerLaw(100, 1074, 2, 20, 1) // 2^-1074 is the least positive float64
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		if d := g.Degree(i); d > 2 {
			t.Fatalf("node %d has degree %d at exponent 1074, want at most minDeg 2", i, d)
		}
	}
}

// TestValidateErrors pins that Validate reports a malformed CSR as an
// error, never a panic: the offsets are checked before any row is sliced,
// and Off[0] is checked at n = 0 too. The first case once panicked with
// "slice bounds out of range [:5] with capacity 2", and the second
// returned nil.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		g    *CSR
	}{
		{"offset-past-adjacency", &CSR{Off: []int32{0, 5, 2}, Adj: []int32{1, 0}}},
		{"empty-offset-not-zero", &CSR{Off: []int32{1}}},
		{"offsets-end-short", &CSR{Off: []int32{0, 1, 1}, Adj: []int32{1, 0}}},
		{"negative-offset", &CSR{Off: []int32{0, -1, 2}, Adj: []int32{1, 0}}},
		{"one-way-edge", &CSR{Off: []int32{0, 1, 1}, Adj: []int32{1}}},
		{"self-loop", &CSR{Off: []int32{0, 1}, Adj: []int32{0}}},
		{"out-of-range-id", &CSR{Off: []int32{0, 1, 2}, Adj: []int32{2, 0}}},
		{"empty-offsets-with-adjacency", &CSR{Adj: []int32{0}}},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err == nil {
			t.Errorf("%s: Validate returned nil", c.name)
		}
	}
	for _, g := range []*CSR{nil, {}, {Off: []int32{0}}, {Off: []int32{0, 1, 2}, Adj: []int32{1, 0}}} {
		if err := g.Validate(); err != nil {
			t.Errorf("%+v: %v", g, err)
		}
	}
}

// validateRef is the map-based Validate that shipped before the
// allocation-free one, kept as FuzzValidate's reference: it records every
// directed entry in a map and then looks up each entry's reverse. Two
// changes fit it to arbitrary input. It checks Off[0] at n = 0 too, and a
// panic counts as an error: it slices row i once Off[i] <= Off[i+1] holds,
// so a row can only run past len(Adj) == Off[n] when a later offset
// decreases, which makes the CSR invalid anyway.
func validateRef(g *CSR) (err error) {
	defer func() {
		if recover() != nil {
			err = errors.New("panic")
		}
	}()
	n := g.N()
	if n == 0 {
		if g != nil && len(g.Adj) != 0 {
			return fmt.Errorf("graph: empty offsets with %d adjacency entries", len(g.Adj))
		}
		if g != nil && len(g.Off) > 0 && g.Off[0] != 0 {
			return fmt.Errorf("graph: offsets start at %d", g.Off[0])
		}
		return nil
	}
	if g.Off[0] != 0 || int(g.Off[n]) != len(g.Adj) {
		return fmt.Errorf("graph: offsets span [%d,%d], adjacency has %d entries", g.Off[0], g.Off[n], len(g.Adj))
	}
	deg := make(map[[2]int32]bool, len(g.Adj))
	for i := 0; i < n; i++ {
		if g.Off[i] > g.Off[i+1] {
			return fmt.Errorf("graph: offsets decrease at node %d", i)
		}
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
			deg[[2]int32{int32(i), j}] = true
		}
	}
	for e := range deg {
		if !deg[[2]int32{e[1], e[0]}] {
			return fmt.Errorf("graph: edge %d-%d present in one direction only", e[0], e[1])
		}
	}
	return nil
}

// FuzzValidate holds Validate to validateRef on small arbitrary CSRs: it
// must never panic and must agree with the reference on nil vs non-nil.
// data[0] mod 18 is len(Off) (so n runs from "no offsets" to 16), the next
// len(Off) bytes are the offsets and the rest is Adj, every byte a signed
// int8: offsets and ids run negative, past len(Adj) and past n. The corpus
// holds the two malformed offset tables of TestValidateErrors, a one-way
// edge, a duplicate, a self-loop, an out-of-range id and a valid triangle.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{4, 0, 2, 4, 6, 1, 2, 0, 2, 0, 1}) // triangle
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &CSR{}
		if len(data) > 0 {
			k := min(int(data[0])%18, len(data)-1)
			for _, b := range data[1 : 1+k] {
				g.Off = append(g.Off, int32(int8(b)))
			}
			for _, b := range data[1+k:] {
				g.Adj = append(g.Adj, int32(int8(b)))
			}
		}
		got, want := g.Validate(), validateRef(g)
		if (got == nil) != (want == nil) {
			t.Fatalf("Off %v Adj %v: Validate says %v, reference %v", g.Off, g.Adj, got, want)
		}
	})
}

// FuzzGenerators runs each generator at fuzz-chosen parameters with
// |n| <= 300. A generator must accept exactly the parameters its comment
// admits, and an accepted graph must pass Validate, have n nodes, satisfy
// the handshake lemma (degrees sum to len(Adj), twice the edge count) and
// regenerate to the same Digest. kind picks Complete, RingLattice (k),
// ErdosRenyi (p), BarabasiAlbert (m = k) or PowerLaw (exponent, minDeg,
// maxDeg). The corpus holds NaN p, a NaN exponent, a k whose double
// overflows int, and a p so small that the geometric skip once overflowed
// its conversion to int and ErdosRenyi reported a self-loop.
func FuzzGenerators(f *testing.F) {
	f.Add(uint8(3), int16(300), 3, 0.0, 0.0, 0, 0, uint64(1))
	f.Add(uint8(4), int16(200), 0, 0.0, 2.5, 2, 40, uint64(7))
	f.Fuzz(func(t *testing.T, kind uint8, nb int16, k int, p, exponent float64, minDeg, maxDeg int, seed uint64) {
		n := int(nb) % 301
		var gen func() (*CSR, error)
		var admitted bool
		switch kind % 5 {
		case 0:
			gen, admitted = func() (*CSR, error) { return Complete(n) }, n > 0
		case 1:
			gen, admitted = func() (*CSR, error) { return RingLattice(n, k) }, n > 0 && k >= 1 && k <= (n-1)/2
		case 2:
			gen, admitted = func() (*CSR, error) { return ErdosRenyi(n, p, seed) }, n > 0 && p >= 0 && p <= 1
		case 3:
			gen, admitted = func() (*CSR, error) { return BarabasiAlbert(n, k, seed) }, k >= 1 && k < n
		default:
			gen = func() (*CSR, error) { return PowerLaw(n, exponent, minDeg, maxDeg, seed) }
			admitted = n > 0 && minDeg >= 1 && minDeg <= maxDeg && maxDeg < n && exponent > 0 && !math.IsInf(exponent, 1) &&
				math.Pow(float64(minDeg), -exponent) > 0
		}
		g, err := gen()
		if (err == nil) != admitted {
			t.Fatalf("n=%d k=%d p=%v exponent=%v deg=[%d,%d]: admitted %v, error %v", n, k, p, exponent, minDeg, maxDeg, admitted, err)
		}
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid CSR: %v", err)
		}
		if g.N() != n {
			t.Fatalf("N() = %d, want %d", g.N(), n)
		}
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Degree(i)
		}
		if sum != len(g.Adj) || len(g.Adj) != 2*g.Edges() {
			t.Fatalf("degrees sum to %d, len(Adj) %d, 2·Edges() %d", sum, len(g.Adj), 2*g.Edges())
		}
		if g2, err := gen(); err != nil || g2.Digest() != g.Digest() {
			t.Fatalf("regeneration drifted: %v", err)
		}
	})
}

// TestValidateAllocBound pins that Validate allocates nothing on a valid
// graph. While it checked symmetry through a map of every directed entry it
// made that map: 55.7 MB and 2.0 s per call on BarabasiAlbert(350000, 3).
func TestValidateAllocBound(t *testing.T) {
	g, err := BarabasiAlbert(2000, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate made %v allocations, want 0", allocs)
	}
}

// TestGeneratorAllocBound pins what BarabasiAlbert allocates per edge: the
// repeated-endpoint list (8 B), which is also FromEdges' input, and the CSR
// (8 B of Adj plus the offsets). While it kept a separate [][2]int32 edge
// list and FromEdges a cursor per node, it allocated 26.7 B per edge.
func TestGeneratorAllocBound(t *testing.T) {
	const n, m, bound = 20_000, 3, 18.0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := BarabasiAlbert(n, m, 42)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.Edges())
	t.Logf("%d edges, %.2f B per edge", g.Edges(), perEdge)
	if perEdge > bound {
		t.Errorf("BarabasiAlbert(%d, %d) allocated %.2f B per edge, bound %.0f", n, m, perEdge, bound)
	}
}

// BenchmarkValidate reports Validate's time and bytes on the benchmark's
// Barabási–Albert graph size.
func BenchmarkValidate(b *testing.B) {
	g, err := BarabasiAlbert(350_000, 3, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFromEdgesDedupe(t *testing.T) {
	g, err := FromEdges(4, []int32{0, 1, 1, 0, 2, 2, 1, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 2 {
		t.Fatalf("deduped graph has %d edges, want 2", g.Edges())
	}
}

func TestUniformNeighborsPick(t *testing.T) {
	g, err := RingLattice(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewUniformNeighbors(g)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(5)
	seen := map[int]int{}
	for i := 0; i < 2000; i++ {
		nb := sp.Pick(0, s)
		if nb != 1 && nb != 11 {
			t.Fatalf("node 0 picked non-neighbor %d", nb)
		}
		seen[nb]++
	}
	if seen[1] == 0 || seen[11] == 0 {
		t.Fatalf("uniform sampler never picked one neighbor: %v", seen)
	}
}

// TestSamplerIsolatedNode pins the -1 contract for degree-zero rows.
func TestSamplerIsolatedNode(t *testing.T) {
	g, err := FromEdges(3, []int32{0, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUniformNeighbors(g)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(1)
	if nb := u.Pick(2, s); nb != -1 {
		t.Fatalf("isolated uniform pick %d, want -1", nb)
	}
}
