package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
	"repro/internal/stats"
)

func parallelService(t *testing.T, n, b int) *Service {
	t.Helper()
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	return mustService(t, bandwidth.Homogeneous(n, b), sel)
}

func TestRunRoundParallelValidation(t *testing.T) {
	sv := parallelService(t, 10, 1)
	streams := rng.NewStreams(1, 2)
	if _, err := sv.RunRoundParallel(streams, 0); err == nil {
		t.Error("accepted workers = 0")
	}
	if _, err := sv.RunRoundParallel(streams, 3); err == nil {
		t.Error("accepted more workers than streams")
	}
	if _, err := sv.RunRoundParallel([]*rng.Stream{streams[0], nil}, 2); err == nil {
		t.Error("accepted a nil stream")
	}
	if _, err := sv.RunRoundParallel(streams, 2); err != nil {
		t.Errorf("rejected a valid configuration: %v", err)
	}
}

func TestRunRoundParallelDeterministic(t *testing.T) {
	// The acceptance bar: for a fixed (seed, workers) the parallel round is
	// bit-for-bit reproducible, including Date order, regardless of how the
	// goroutines were actually scheduled.
	const n, seed = 3000, 99
	for _, workers := range []int{1, 2, 3, 4, 7, 8} {
		run := func() []RoundResult {
			sv := parallelService(t, n, 2)
			streams := rng.NewStreams(seed, workers)
			var out []RoundResult
			for r := 0; r < 5; r++ {
				res, err := sv.RunRoundParallel(streams, workers)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, res)
			}
			return out
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d: two runs with the same seed diverged", workers)
		}
	}
}

func TestRunRoundParallelCapacities(t *testing.T) {
	// The paper's safety property must hold on the parallel path for skewed
	// profiles and selection distributions alike.
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
	streams := rng.NewStreams(101, 4)
	for round := 0; round < 20; round++ {
		res, err := sv.RunRoundParallel(streams, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateCapacities(res, p); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestRunRoundParallelFilteredChurn(t *testing.T) {
	// RunRoundFiltered-style churn on the parallel path: the dead set
	// changes every round; dead nodes never appear in dates, capacities
	// hold, and accounting only counts delivered requests.
	const n = 500
	sv := parallelService(t, n, 2)
	streams := rng.NewStreams(7, 3)
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
		res, err := sv.RunRoundParallelFiltered(streams, 3, func(i int) bool { return alive[i] })
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Dates {
			if !alive[d.Sender] || !alive[d.Receiver] {
				t.Fatalf("round %d: date %v involves a dead node", round, d)
			}
		}
		if err := ValidateCapacities(res, sv.Profile()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.OffersSent > liveOut {
			t.Fatalf("round %d: %d offers delivered by senders with %d live capacity", round, res.OffersSent, liveOut)
		}
	}
}

func TestRunRoundParallelMatchesSerialFraction(t *testing.T) {
	// Statistical equivalence at n = 10k: the parallel engine must arrange
	// the same fraction of the centralized optimum as the serial path,
	// within 1% relative tolerance (the acceptance criterion).
	const n, rounds = 10000, 40
	serial := parallelService(t, n, 1)
	s := rng.New(200)
	var serialAcc stats.Accumulator
	for r := 0; r < rounds; r++ {
		serialAcc.Add(serial.RunRound(s).Fraction(n))
	}

	for _, workers := range []int{2, 4} {
		par := parallelService(t, n, 1)
		streams := rng.NewStreams(201, workers)
		var parAcc stats.Accumulator
		for r := 0; r < rounds; r++ {
			res, err := par.RunRoundParallel(streams, workers)
			if err != nil {
				t.Fatal(err)
			}
			parAcc.Add(res.Fraction(n))
		}
		rel := math.Abs(parAcc.Mean()-serialAcc.Mean()) / serialAcc.Mean()
		if rel > 0.01 {
			t.Fatalf("workers=%d: parallel fraction %.5f vs serial %.5f (relative gap %.4f > 1%%)",
				workers, parAcc.Mean(), serialAcc.Mean(), rel)
		}
	}
}

func TestRunRoundParallelControlMessageCounts(t *testing.T) {
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
		streams := rng.NewStreams(301, workers)
		res, err := sv.RunRoundParallel(streams, workers)
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
	// One Service must survive interleaved serial, parallel, and filtered
	// rounds with different worker counts: the scratch is shared, and a
	// leak from any round shape would corrupt the next.
	const n = 250
	sv := parallelService(t, n, 2)
	s := rng.New(400)
	streams := rng.NewStreams(401, 4)
	dead := func(i int) bool { return i%10 != 0 }
	for round := 0; round < 30; round++ {
		var res RoundResult
		var err error
		switch round % 4 {
		case 0:
			res = sv.RunRound(s)
		case 1:
			res, err = sv.RunRoundParallel(streams, 4)
		case 2:
			res = sv.RunRoundFiltered(s, dead)
		case 3:
			res, err = sv.RunRoundParallelFiltered(streams, 2, dead)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateCapacities(res, sv.Profile()); err != nil {
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
		res := sv.RunRound(s)
		if res.OffersSent != n*b || res.RequestsSent != n*b {
			t.Fatalf("round %d: sent %d/%d, want %d/%d",
				round, res.OffersSent, res.RequestsSent, n*b, n*b)
		}
		if err := ValidateCapacities(res, sv.Profile()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
