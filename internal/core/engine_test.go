package core

import (
	"testing"

	"repro/internal/bandwidth"
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
		if err := ValidateCapacities(res, p); err != nil {
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
		res, err := sv.RunRoundSeededFiltered(churn.Uint64(), 3, func(i int) bool { return alive[i] })
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
	// One Service must survive interleaved serial, seeded, and filtered
	// rounds with different worker counts: the scratch is shared, and a
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
			res = sv.RunRound(s)
		case 1:
			res, err = sv.RunRoundSeeded(s.Uint64(), 4)
		case 2:
			res, err = sv.RunRoundSeededFiltered(s.Uint64(), 1, dead)
		case 3:
			res, err = sv.RunRoundSeededFiltered(s.Uint64(), 2, dead)
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
