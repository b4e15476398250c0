package exch

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

func TestPartitionCovers(t *testing.T) {
	// The owner ranges must tile [0, n): every destination belongs to
	// exactly the owner whose range holds it, for every (n, parts) shape —
	// including parts > n, where some owners get empty ranges.
	for _, tc := range []struct{ n, parts int }{
		{1, 1}, {17, 2}, {100, 3}, {1000, 8}, {1000, 16}, {3, 16}, {10, 4},
	} {
		p := Partition{N: tc.n, Parts: tc.parts}
		if p.Start(0) != 0 || p.End(tc.parts-1) != tc.n {
			t.Fatalf("n=%d parts=%d: ranges do not span [0, n)", tc.n, tc.parts)
		}
		for o := 1; o < tc.parts; o++ {
			if p.Start(o) != p.End(o-1) {
				t.Fatalf("n=%d parts=%d: gap between owners %d and %d", tc.n, tc.parts, o-1, o)
			}
		}
		for d := 0; d < tc.n; d++ {
			o := p.Owner(d)
			if o < 0 || o >= tc.parts {
				t.Fatalf("n=%d parts=%d: owner(%d) = %d out of range", tc.n, tc.parts, d, o)
			}
			if lo, hi := p.Range(o); d < lo || d >= hi {
				t.Fatalf("n=%d parts=%d: owner(%d) = %d but range is [%d, %d)", tc.n, tc.parts, d, o, lo, hi)
			}
		}
	}
}

// checkOwner holds Owner(d) to its definition, the largest o with
// Start(o) <= d, and to the division it replaces, on a literal partition
// and a constructed one.
func checkOwner(t *testing.T, n, parts, d int) {
	t.Helper()
	lit, built := Partition{N: n, Parts: parts}, NewPartition(n, parts)
	largest := sort.Search(parts, func(o int) bool { return lit.Start(o) > d }) - 1
	divided := int((uint64(d+1)*uint64(parts) - 1) / uint64(n))
	if got, lgot := built.Owner(d), lit.Owner(d); got != largest || got != divided || lgot != got {
		t.Fatalf("n=%d parts=%d: Owner(%d) = %d (literal %d), want the largest o with Start(o) <= d, %d, and the quotient %d",
			n, parts, d, got, lgot, largest, divided)
	}
}

// checkOwnerCuts checks d = 0, n-1 and every d within one of owner o's cut.
func checkOwnerCuts(t *testing.T, n, parts, o int) {
	t.Helper()
	cut := Partition{N: n, Parts: parts}.Start(o)
	for _, d := range []int{0, n - 1, cut - 1, cut, cut + 1} {
		if d >= 0 && d < n {
			checkOwner(t, n, parts, d)
		}
	}
}

// TestPartitionOwnerTable runs checkOwner over the shapes at the edges of
// the runtimes' range: one peer, parts = n, n = MaxInt32, and n·parts past
// 2^32, where (d+1)·parts no longer fits 32 bits.
func TestPartitionOwnerTable(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{1, 1}, {2, 1}, {2, 2}, {7, 3}, {10, 4}, {1000, 1000}, {1000, 999},
		{1<<20 + 7, 4097}, {100_000, 99_999}, {3_000_000, 2_999_999},
		{math.MaxInt32, 1}, {math.MaxInt32, 2}, {math.MaxInt32, 3}, {math.MaxInt32, 65_537},
		{math.MaxInt32, math.MaxInt32 - 1}, {math.MaxInt32, math.MaxInt32},
	} {
		if tc.n <= 2000 {
			for d := 0; d < tc.n; d++ {
				checkOwner(t, tc.n, tc.parts, d)
			}
		}
		s := rng.New(uint64(tc.n) ^ uint64(tc.parts)<<32)
		for k := 0; k < min(tc.parts, 2000); k++ {
			o := k // the first owners, then random ones
			if k >= 1000 {
				o = s.Intn(tc.parts)
			}
			checkOwnerCuts(t, tc.n, tc.parts, o)
			checkOwnerCuts(t, tc.n, tc.parts, tc.parts-1-o)
		}
	}
}

// FuzzPartitionOwner checks Owner on fuzzed shapes n in [1, MaxInt32],
// parts in [1, n], at a fuzzed d and at the cut of a fuzzed owner.
func FuzzPartitionOwner(f *testing.F) {
	f.Fuzz(func(t *testing.T, nb, pb, db, ob uint32) {
		n := 1 + int(nb%math.MaxInt32)
		parts := 1 + int(pb)%n
		checkOwner(t, n, parts, int(db)%n)
		checkOwnerCuts(t, n, parts, int(ob)%parts)
	})
}

func TestBalancedCuts(t *testing.T) {
	cases := []struct {
		n, parts int
		weight   func(i int) int
	}{
		{10, 3, func(i int) int { return 1 }},
		{1, 4, func(i int) int { return 2 }},
		{0, 2, func(i int) int { return 1 }},
		{100, 7, func(i int) int { return i }},
		{5, 5, func(i int) int { return 0 }},
	}
	for _, c := range cases {
		cuts := BalancedCuts(nil, c.n, c.parts, c.weight)
		if len(cuts) != c.parts+1 {
			t.Fatalf("n=%d parts=%d: %d boundaries", c.n, c.parts, len(cuts))
		}
		if cuts[0] != 0 || cuts[c.parts] != c.n {
			t.Fatalf("n=%d parts=%d: cuts %v do not cover [0,n)", c.n, c.parts, cuts)
		}
		for p := 0; p < c.parts; p++ {
			if cuts[p] > cuts[p+1] {
				t.Fatalf("n=%d parts=%d: cuts %v not monotone", c.n, c.parts, cuts)
			}
		}
	}
	// Uniform weights split evenly.
	cuts := BalancedCuts(nil, 1000, 4, func(i int) int { return 1 })
	for p := 0; p < 4; p++ {
		if size := cuts[p+1] - cuts[p]; size < 240 || size > 260 {
			t.Fatalf("uniform cuts %v badly unbalanced", cuts)
		}
	}
}

// record scatters count pseudo-random (key, value) pairs per worker into ex
// (in scan order per worker, as the engines do), and returns the reference
// bucket layout: want[d] holds d's values in (worker, scan) order.
func record(ex *Exchange[int32], workers, n, count int, seed uint64) (want [][]int32) {
	ex.Reset(workers, Partition{N: n, Parts: workers})
	want = make([][]int32, n)
	s := rng.New(seed)
	type rec struct{ k, v int32 }
	perWorker := make([][]rec, workers)
	for w := 0; w < workers; w++ {
		ex.ClearWorker(w)
		for i := 0; i < count; i++ {
			k, v := int32(s.Intn(n)), int32(s.Intn(n))
			ex.Record(w, k, v)
			perWorker[w] = append(perWorker[w], rec{k, v})
		}
	}
	for w := 0; w < workers; w++ {
		for _, r := range perWorker[w] {
			want[r.k] = append(want[r.k], r.v)
		}
	}
	return want
}

// drain runs the Prefix+Fill pass and returns the flat output and offsets.
func drain(ex *Exchange[int32], n, workers int) (off []int32, out []int32) {
	total := ex.Prefix()
	off = make([]int32, n+1)
	out = make([]int32, total)
	ends := make([]int32, workers)
	for o := 0; o < workers; o++ {
		ends[o] = ex.Fill(o, off, out)
	}
	off[n] = total
	for o := 0; o+1 < workers; o++ {
		if ends[o] != ex.base[o+1] {
			panic("Fill end does not meet the next owner's base")
		}
	}
	return off, out
}

func TestFillDisjointAndStable(t *testing.T) {
	// Fill must produce buckets in destination order, each holding its
	// values in global scan order (stability), with owners writing disjoint
	// ranges that exactly tile the output.
	for _, tc := range []struct{ n, workers, count int }{
		{1, 1, 3}, {17, 2, 10}, {100, 3, 40}, {1000, 8, 200}, {1000, 16, 50}, {5, 9, 4},
	} {
		var ex Exchange[int32]
		want := record(&ex, tc.workers, tc.n, tc.count, 5)
		off, out := drain(&ex, tc.n, tc.workers)
		if int(off[tc.n]) != len(out) || len(out) != tc.workers*tc.count {
			t.Fatalf("n=%d workers=%d: totals do not close the offset table", tc.n, tc.workers)
		}
		for v := 0; v < tc.n; v++ {
			got := out[off[v]:off[v+1]]
			if len(got) != len(want[v]) || (len(got) > 0 && !reflect.DeepEqual(got, want[v])) {
				t.Fatalf("n=%d workers=%d: bucket %d = %v, want %v", tc.n, tc.workers, v, got, want[v])
			}
		}
	}
}

// FuzzExchangeFill checks Record, Prefix and Fill against their definition,
// a stable sort of the records by key: bucket d holds d's values in (worker,
// record) order, with or without a Reserve between ClearWorker and the
// records. n, workers and owners are fuzzed independently, so an owner's
// range may be empty; data is cut into (worker, key) pairs, and a record's
// value is its position. The corpus holds n = 0 and n = 1, more owners than
// n, every key on one owner, Reserve(w, 0) and a Reserve far above the
// records; in reserved-overflow, as under Reserve(w, 0), the records
// outgrow each chunk's room and its overflow run's first block.
func FuzzExchangeFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, nb, wb, pb uint8, reserved bool, reserve uint16, data []byte) {
		n, workers, parts := int(nb)%64, 1+int(wb)%6, 1+int(pb)%9
		var ex Exchange[int32]
		ex.Reset(workers, Partition{N: n, Parts: parts})
		for w := 0; w < workers; w++ {
			ex.ClearWorker(w)
			if reserved {
				ex.Reserve(w, int(reserve))
			}
		}
		type rec struct {
			w    int
			k, v int32
		}
		var recs []rec
		for b := 0; n > 0 && b+2 <= len(data); b += 2 {
			r := rec{int(data[b]) % workers, int32(int(data[b+1]) % n), int32(b / 2)}
			ex.Record(r.w, r.k, r.v)
			recs = append(recs, r)
		}
		slices.SortStableFunc(recs, func(a, b rec) int { return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.w, b.w)) })
		wantOff, wantOut := make([]int32, n+1), make([]int32, len(recs))
		for i, r := range recs {
			wantOff[r.k+1]++
			wantOut[i] = r.v
		}
		for d := 0; d < n; d++ {
			wantOff[d+1] += wantOff[d]
		}

		total := ex.Prefix()
		// off[0] is the caller's zero; every other entry starts at a value
		// no owner writes, so an entry no owner fills shows.
		off, out := make([]int32, n+1), make([]int32, total)
		for d := 1; d <= n; d++ {
			off[d] = -1
		}
		// Owners run last to first: none may lean on a lower owner's
		// entries, and none may write outside its own off[lo+1 .. hi].
		for o := parts - 1; o >= 0; o-- {
			next := total
			if o+1 < parts {
				next = ex.base[o+1]
			}
			before := slices.Clone(off)
			if end := ex.Fill(o, off, out); end != next {
				t.Fatalf("n=%d workers=%d owners=%d: owner %d's Fill ends at %d, not at the next base", n, workers, parts, o, end)
			}
			lo, hi := ex.part.Range(o)
			for d := range off {
				if (d <= lo || d > hi) && off[d] != before[d] {
					t.Fatalf("n=%d workers=%d owners=%d: owner %d of [%d, %d) wrote off[%d]", n, workers, parts, o, lo, hi, d)
				}
			}
		}
		if !slices.Equal(off, wantOff) || !slices.Equal(out, wantOut) {
			t.Fatalf("n=%d workers=%d owners=%d reserve=%v/%d: Fill gave offsets %v and values %v, want %v and %v",
				n, workers, parts, reserved, reserve, off, out, wantOff, wantOut)
		}
	})
}

func TestScratchReuse(t *testing.T) {
	// Reusing one Exchange across rounds — including shape changes that
	// force chunk-matrix reallocation and shrink the worker count — must
	// leave no stale state: each round's output equals a fresh Exchange's.
	var reused Exchange[int32]
	shapes := []struct{ n, workers, count int }{
		{100, 4, 30}, {100, 4, 10}, {1000, 8, 50}, {100, 4, 30}, {50, 2, 0}, {100, 4, 30},
	}
	for round, tc := range shapes {
		record(&reused, tc.workers, tc.n, tc.count, uint64(round))
		gotOff, gotOut := drain(&reused, tc.n, tc.workers)
		var fresh Exchange[int32]
		record(&fresh, tc.workers, tc.n, tc.count, uint64(round))
		wantOff, wantOut := drain(&fresh, tc.n, tc.workers)
		if !reflect.DeepEqual(gotOff, wantOff) || !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("round %d (n=%d workers=%d): reused exchange diverged from fresh", round, tc.n, tc.workers)
		}
	}
}

func TestConcatSetBaseFlush(t *testing.T) {
	// The RecordTo/SetBase/Flush concat form must place owner o's values as
	// base..end in worker order, and Flush must empty the chunks so the next
	// round starts clean without ClearWorker.
	var ex Exchange[int32]
	const owners, workers = 3, 4
	total := func(o int) int {
		t := 0
		for w := 0; w < workers; w++ {
			t += len(ex.ch[w*ex.stride+o].vals)
		}
		return t
	}
	ex.Reset(workers, Partition{N: owners, Parts: owners})
	for w := 0; w < workers; w++ {
		ex.ClearWorker(w)
	}
	for pass := 0; pass < 2; pass++ {
		want := make([][]int32, owners)
		for w := 0; w < workers; w++ {
			for o := 0; o < owners; o++ {
				for k := 0; k < (w+o+pass)%3; k++ {
					v := int32(100*pass + 10*w + o)
					ex.RecordTo(w, o, v)
					want[o] = append(want[o], v)
				}
			}
		}
		for o := 0; o < owners; o++ {
			base := 0
			end := ex.SetBase(o, base)
			if end-base != total(o) {
				t.Fatalf("pass %d owner %d: SetBase end %d != total %d", pass, o, end, total(o))
			}
			dst := make([]int32, end)
			for w := 0; w < workers; w++ {
				ex.Flush(w, o, dst)
			}
			if !reflect.DeepEqual(dst, want[o]) && len(want[o]) > 0 {
				t.Fatalf("pass %d owner %d: flushed %v, want %v", pass, o, dst, want[o])
			}
			if total(o) != 0 {
				t.Fatalf("pass %d owner %d: Flush left %d records behind", pass, o, total(o))
			}
		}
	}
}

// TestRowIsolation pins the row-isolation rule by address arithmetic: the
// last byte of any header in worker w's row and the first byte of any header
// in another worker's row are at least Isolation bytes apart, wherever the
// allocator places the matrix. Record writes a header's length words on
// every call; two workers on one line is the false sharing that made
// two-shard dating rounds bimodal, and rows one line apart still made the
// two-worker scatter slower than one worker's.
func TestRowIsolation(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		for _, owners := range []int{2, 3, 4, 8} {
			var ex Exchange[int32]
			ex.Reset(workers, Partition{N: 1000, Parts: owners})
			// Touch every cell through the exported API first: the addresses
			// below are the ones Record and RecordTo really write.
			for w := 0; w < workers; w++ {
				for o := 0; o < owners; o++ {
					ex.RecordTo(w, o, 1)
				}
			}
			header := func(w, o int) (first, last uintptr) {
				if len(ex.ch[w*ex.stride+o].vals) != 1 {
					t.Fatalf("workers=%d owners=%d: cell (%d, %d) not where RecordTo wrote", workers, owners, w, o)
				}
				c := &ex.ch[w*ex.stride+o]
				first = uintptr(unsafe.Pointer(c))
				return first, first + unsafe.Sizeof(*c) - 1
			}
			for w := 0; w+1 < workers; w++ {
				_, rowEnd := header(w, owners-1)
				nextStart, _ := header(w+1, 0)
				if nextStart <= rowEnd+Isolation {
					t.Errorf("workers=%d owners=%d: row %d ends at %#x, row %d starts at %#x: fewer than %d bytes apart",
						workers, owners, w, rowEnd, w+1, nextStart, Isolation)
				}
			}
		}
	}
}
