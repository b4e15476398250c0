package core

// The radix scatter's memory claim, as a regression test: a round's scratch
// is O(n + requests), so the bytes a fresh Service allocates to run its
// first round must not scale with the worker count at fixed n. The pre-
// radix engine held two length-n count arrays per worker (O(workers·n)) and
// fails this test by a wide margin.
//
// testing.AllocsPerRun counts allocations, not bytes, and the worker-count
// scaling lives in bytes (two big arrays per extra worker) — so the test
// samples runtime.ReadMemStats around the round instead. TotalAlloc is
// cumulative across all goroutines, which also covers the allocations the
// phase workers make off the calling goroutine.

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/par"
)

// allocFirstRound returns the bytes allocated by constructing a Service at
// n nodes and running one seeded round at the given worker count — i.e. the
// full scratch footprint a round of that shape needs.
func allocFirstRound(t *testing.T, n, workers int) uint64 {
	t.Helper()
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	profile := bandwidth.Homogeneous(n, 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	svc, err := NewService(profile, sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunRoundSeeded(1, workers); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(svc)
	return after.TotalAlloc - before.TotalAlloc
}

func TestRoundAllocBytesIndependentOfWorkers(t *testing.T) {
	// At n=50k, each extra worker used to cost 2·4·n = 400 KB of count
	// arrays: 16 workers allocated ~6 MB more than 1 worker, about 3x the
	// serial footprint. Under the radix scatter the owners count on their
	// own ranges of the offsets and the chunks hold the round's requests, so
	// the 16-worker round must stay within a modest constant of the serial
	// one (goroutine stacks, chunk headers, fan-out bookkeeping).
	const n = 50_000
	serial := allocFirstRound(t, n, 1)
	wide := allocFirstRound(t, n, 16)
	if serial == 0 {
		t.Fatal("serial round reported zero allocation — measurement broken")
	}
	if limit := serial + serial/2; wide > limit {
		t.Fatalf("16-worker first round allocated %d bytes vs %d serial (limit %d): scratch scales with workers again",
			wide, serial, limit)
	}
}

func TestSteadyStateRoundAllocsFlat(t *testing.T) {
	// After the first round the scratch is warm: subsequent rounds must not
	// re-allocate worker-count-scaled buffers either. (The one per-round
	// allocation left on this entry point is the fresh Dates slice, 8 bytes
	// a date and identical for every worker count; RunRoundShared has none,
	// see TestSharedRoundAllocatesNothingPerNode.)
	const n, rounds = 20_000, 4
	measure := func(workers int) uint64 {
		sel, err := NewUniformSelector(n)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(bandwidth.Homogeneous(n, 1), sel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.RunRoundSeeded(1, workers); err != nil { // warm-up
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			if _, err := svc.RunRoundSeeded(uint64(r+2), workers); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(svc)
		return after.TotalAlloc - before.TotalAlloc
	}
	serial := measure(1)
	wide := measure(8)
	if serial == 0 {
		t.Fatal("steady-state serial rounds reported zero allocation — measurement broken")
	}
	if limit := serial + serial/2; wide > limit {
		t.Fatalf("8-worker steady-state rounds allocated %d bytes vs %d serial (limit %d)",
			wide, serial, limit)
	}
}

func TestSharedRoundAllocatesNothingPerNode(t *testing.T) {
	// The spreading protocols' round: once the scratch and the Service's
	// date buffer are warm, a round allocates closures and fan-out
	// bookkeeping only — under n bytes over all the rounds here, where one
	// length-n []int alone is 8n. The rounds replay the warm-up's seed, so
	// every chunk and date buffer is asked for exactly the room it already
	// has: what append's amortised growth costs while request counts still
	// drift is gossip's TestDatingSpreadAllocBound, not this test. Odd and
	// wide worker counts are here so that a path limited to some worker
	// counts shows up.
	const n, rounds, seed = 40_000, 6, 1
	for _, workers := range []int{1, 2, 3, 8, 16} {
		sv := parallelService(t, n, 2)
		b, err := par.NewBudget(workers)
		if err != nil {
			t.Fatal(err)
		}
		run := func(k int) {
			for ; k > 0; k-- {
				dates, err := sv.RunRoundShared(seed, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(dates) < n/2 {
					t.Fatalf("workers=%d: a b=2 round arranged %d dates over %d nodes", workers, len(dates), n)
				}
			}
		}
		run(1)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(rounds)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= n {
			t.Errorf("workers=%d: %d warm rounds allocated %d bytes, want fewer than n = %d", workers, rounds, got, n)
		}
	}
}

func TestRoundBufferContract(t *testing.T) {
	// RunRoundShared's dates live in the Service's buffer: intact until the
	// next RunRoundShared, whatever else runs in between. A RunRoundSeeded
	// result owns its slice: no later round of either kind writes to it.
	const n = 2_000
	sv := parallelService(t, n, 2)
	shared, err := sv.RunRoundShared(11, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sharedCopy := append([]Date(nil), shared...)
	owned, err := sv.RunRoundSeeded(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	ownedCopy := append([]Date(nil), owned.Dates...)
	if !reflect.DeepEqual(shared, sharedCopy) {
		t.Fatal("a RunRoundSeeded round overwrote the dates of the last RunRoundShared")
	}
	again, err := sv.RunRoundSeeded(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Dates, sharedCopy) {
		t.Fatal("RunRoundShared and RunRoundSeeded arrange different dates from one seed")
	}
	for seed := uint64(13); seed < 17; seed++ {
		if _, err := sv.RunRoundShared(seed, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sv.RunRoundSeeded(seed, 2); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(owned.Dates, ownedCopy) {
		t.Fatal("a later round wrote into the slice an earlier RunRoundSeeded returned")
	}
}

// raceDetector is set under -race (race_test.go). The detector's
// instrumentation makes slices.Grow allocate its growth twice over, so a
// bound that covers Reserve's chunk rows has a second figure there.
var raceDetector bool

// TestServiceScratchAllocBound pins what a fresh Service allocates to run
// its first RunRoundShared, per request sent: the engine's scratch (the two
// offset arrays, the chunk rows and their quarter of headroom, the flat
// request arrays) and the Service's date buffer. A spread pays this once;
// what its later rounds grow is gossip's TestDatingSpreadAllocBound. With
// two count arrays beside the offsets and 16-byte dates a first round
// allocated 24.6 B per request at one worker and 25.8 at two (34.8 and 37.4
// under -race); with the owners counting on the offsets and 8-byte dates,
// 19.5 and 20.7 (29.7 and 32.2).
func TestServiceScratchAllocBound(t *testing.T) {
	const n, b = 20_000, 2
	bound := 22.0
	if raceDetector {
		bound = 34.0
	}
	requests := float64(2 * b * n)
	for _, workers := range []int{1, 2} {
		sel, err := NewUniformSelector(n)
		if err != nil {
			t.Fatal(err)
		}
		profile := bandwidth.Homogeneous(n, b)
		budget, err := par.NewBudget(workers)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sv, err := NewService(profile, sel)
		if err != nil {
			t.Fatal(err)
		}
		dates, err := sv.RunRoundShared(1, budget, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(dates) < n {
			t.Fatalf("workers=%d: a b=%d round arranged %d dates over %d nodes", workers, b, len(dates), n)
		}
		perRequest := float64(after.TotalAlloc-before.TotalAlloc) / requests
		t.Logf("workers=%d: %d dates, %.1f B per request", workers, len(dates), perRequest)
		if perRequest > bound {
			t.Errorf("workers=%d: a fresh Service's first round allocated %.1f B per request, bound %.1f", workers, perRequest, bound)
		}
	}
}
