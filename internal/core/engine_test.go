package core

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/bandwidth"
	"repro/internal/exch"
	"repro/internal/rng"
)

func parallelService(t *testing.T, n, b int) *Service {
	t.Helper()
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	return mustService(t, bandwidth.Homogeneous(n, b), sel)
}

func TestSeededRoundCapacities(t *testing.T) {
	// The paper's safety property must hold round after round on reused
	// scratch, for skewed profiles and selection distributions alike.
	s := rng.New(100)
	p, err := bandwidth.Zipf(400, 1.2, 16, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, p.N())
	for i := range weights {
		weights[i] = float64(i%7 + 1)
	}
	sel, err := NewWeightedSelector(weights)
	if err != nil {
		t.Fatal(err)
	}
	sv := mustService(t, p, sel)
	for round := 0; round < 20; round++ {
		res, err := sv.RunRoundSeeded(uint64(101+round), 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := validateCapacities(res, p); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestSeededRoundFilteredChurn(t *testing.T) {
	// Churn on one Service: the dead set changes every round; dead nodes never appear in dates, capacities
	// hold, and accounting only counts delivered requests.
	const n = 500
	sv := parallelService(t, n, 2)
	churn := rng.New(8)
	alive := make([]bool, n)
	for round := 0; round < 15; round++ {
		liveOut := 0
		for i := range alive {
			alive[i] = !churn.Bernoulli(0.2)
			if alive[i] {
				liveOut += sv.profile.Out[i]
			}
		}
		res, err := churnRound(sv, churn.Uint64(), 3, func(i int) bool { return alive[i] })
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Dates {
			if !alive[d.Sender] || !alive[d.Receiver] {
				t.Fatalf("round %d: date %v involves a dead node", round, d)
			}
		}
		if err := validateCapacities(res, sv.Profile()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.OffersSent > liveOut {
			t.Fatalf("round %d: %d offers delivered by senders with %d live capacity", round, res.OffersSent, liveOut)
		}
	}
}

func TestSeededRoundControlMessageCounts(t *testing.T) {
	// With everyone alive, every request is delivered: OffersSent == Bout
	// and RequestsSent == Bin, exactly, on every worker count.
	s := rng.New(300)
	p, err := bandwidth.Zipf(300, 1.0, 8, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := NewUniformSelector(p.N())
	sv := mustService(t, p, sel)
	for _, workers := range []int{1, 2, 5} {
		res, err := sv.RunRoundSeeded(301, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.OffersSent != p.TotalOut() || res.RequestsSent != p.TotalIn() {
			t.Fatalf("workers=%d: sent %d/%d, want %d/%d",
				workers, res.OffersSent, res.RequestsSent, p.TotalOut(), p.TotalIn())
		}
	}
}

func TestServiceMixedSerialParallelReuse(t *testing.T) {
	// One Service must survive interleaved unfiltered and filtered rounds
	// with different worker counts: the scratch is shared, and a
	// leak from any round shape would corrupt the next.
	const n = 250
	sv := parallelService(t, n, 2)
	s := rng.New(400)
	dead := func(i int) bool { return i%10 != 0 }
	for round := 0; round < 30; round++ {
		var res RoundResult
		var err error
		switch round % 4 {
		case 0:
			res = seededRound(t, sv, s.Uint64())
		case 1:
			res, err = sv.RunRoundSeeded(s.Uint64(), 4)
		case 2:
			res, err = churnRound(sv, s.Uint64(), 1, dead)
		case 3:
			res, err = churnRound(sv, s.Uint64(), 2, dead)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := validateCapacities(res, sv.Profile()); err != nil {
			t.Fatalf("round %d (shape %d): %v", round, round%4, err)
		}
		if round%4 == 0 || round%4 == 1 {
			if res.OffersSent != sv.Profile().TotalOut() {
				t.Fatalf("round %d: OffersSent %d, want %d — scratch leaked across rounds",
					round, res.OffersSent, sv.Profile().TotalOut())
			}
		}
	}
}

// TestServiceManyRoundsAccounting is the scratch-reuse regression test: a
// long sequence of rounds on one Service must keep exact control-message
// accounting and the capacity invariant on every single round (the old
// per-rendezvous slice implementation relied on subtle reset invariants;
// the flat engine must not regress them).
func TestServiceManyRoundsAccounting(t *testing.T) {
	const n, b, rounds = 120, 3, 300
	sv := parallelService(t, n, b)
	s := rng.New(500)
	for round := 0; round < rounds; round++ {
		res := seededRound(t, sv, s.Uint64())
		if res.OffersSent != n*b || res.RequestsSent != n*b {
			t.Fatalf("round %d: sent %d/%d, want %d/%d",
				round, res.OffersSent, res.RequestsSent, n*b, n*b)
		}
		if err := validateCapacities(res, sv.Profile()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestWorkerIsolation pins the engine's isolation rule, like
// exch.TestRowIsolation and shardrt.TestLaneIsolation do theirs: elements
// are whole cache lines, exch.Isolation bytes separate one worker's state
// from the next worker's, and the generator a worker's stream draws from is
// the one inside its own element — not a heap object that may sit next to a
// neighbour's.
func TestWorkerIsolation(t *testing.T) {
	if sz := unsafe.Sizeof(engineWorker{}); sz%cacheLine != 0 {
		t.Errorf("engineWorker is %d bytes, not a multiple of the %d-byte cache line", sz, cacheLine)
	}
	sv := parallelService(t, 64, 1)
	for _, workers := range []int{2, 8, 3} { // grows the array once, then reuses it
		if _, err := sv.RunRoundSeeded(1, workers); err != nil {
			t.Fatal(err)
		}
		ws := sv.eng.ws
		if len(ws) < workers {
			t.Fatalf("%d workers ran on %d worker states", workers, len(ws))
		}
		for w := range ws {
			lo := uintptr(unsafe.Pointer(&ws[w]))
			stateEnd := lo + unsafe.Sizeof(workerState{})
			if w+1 < len(ws) {
				if next := uintptr(unsafe.Pointer(&ws[w+1])); next < stateEnd+exch.Isolation {
					t.Errorf("worker %d's state ends at %#x, worker %d starts at %#x: fewer than %d bytes apart", w, stateEnd, w+1, next, exch.Isolation)
				}
			}
			if g := uintptr(unsafe.Pointer(&ws[w].gen)); g < lo || g+unsafe.Sizeof(ws[w].gen) > stateEnd {
				t.Errorf("worker %d's generator at %#x lies outside its state [%#x, %#x)", w, g, lo, stateEnd)
			}
			// The stream reads that generator: a draw through the stream is
			// the draw of a twin seeded alike, and leaves gen in the twin's
			// state.
			seed := uint64(1000 + w)
			twin := rng.NewXoshiro256(seed)
			ws[w].gen.Seed(seed)
			if got, want := ws[w].stream.Uint64(), twin.Uint64(); got != want {
				t.Errorf("worker %d's stream drew %#x, its own generator would have drawn %#x", w, got, want)
			}
			if ws[w].gen != *twin {
				t.Errorf("worker %d's stream did not advance the generator in its own element", w)
			}
		}
	}
}

// TestUnindexableRoundsRejected pins the int32 guard: a profile or a
// supply/demand pair whose totals (or node count) the engine's offsets
// cannot hold is an error from NewService and Arrange, not a Prefix that
// wraps negative inside a round.
func TestUnindexableRoundsRejected(t *testing.T) {
	sel, err := NewUniformSelector(2)
	if err != nil {
		t.Fatal(err)
	}
	half := 1 << 30
	bad := map[string]bandwidth.Profile{
		"both sums 2^32-2":  bandwidth.Homogeneous(2, math.MaxInt32),
		"out sum 2^31":      {Out: []int{half, half}, In: []int{1, 1}},
		"in sum 2^31":       {Out: []int{1, 1}, In: []int{half, half}},
		"sum overflows int": {Out: []int{math.MaxInt, math.MaxInt}, In: []int{1, 1}},
	}
	a, err := NewArranger(sel)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range bad {
		if _, err := NewService(p, sel); err == nil {
			t.Errorf("%s: NewService accepted a profile the engine cannot index", name)
		}
		if _, err := a.Arrange(p.Out, p.In, 1, 1); err == nil {
			t.Errorf("%s: Arrange accepted vectors the engine cannot index", name)
		}
	}
	// The bound itself is fine (no round is run on it here).
	edge := bandwidth.Profile{Out: []int{half, half - 1}, In: []int{half - 1, half}}
	if _, err := NewService(edge, sel); err != nil {
		t.Errorf("sums of exactly MaxInt32 rejected: %v", err)
	}
	// 2^31 nodes, where an int can hold the count.
	if nodes := int64(math.MaxInt32) + 1; int64(int(nodes)) == nodes {
		if err := indexable(int(nodes), nil, nil); err == nil {
			t.Error("2^31 nodes accepted")
		}
	}
	if _, err := a.Arrange([]int{1, -1}, []int{1, 1}, 1, 1); err == nil {
		t.Error("negative supply accepted")
	}
}
