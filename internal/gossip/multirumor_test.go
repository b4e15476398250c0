package gossip

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/par"
	"repro/internal/rng"
)

func TestMultiRumorValidation(t *testing.T) {
	s := rng.New(1)
	if _, err := runMultiRumor(MultiRumorConfig{}, s, nil, nil); err == nil {
		t.Error("accepted empty config")
	}
	if _, err := runMultiRumor(MultiRumorConfig{N: 10}, s, nil, nil); err == nil {
		t.Error("accepted zero injections")
	}
	if _, err := runMultiRumor(MultiRumorConfig{
		N: 10, Injections: []Injection{{Round: 1, Source: 10}},
	}, s, nil, nil); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, err := runMultiRumor(MultiRumorConfig{
		N: 10, Injections: []Injection{{Round: 0, Source: 0}},
	}, s, nil, nil); err == nil {
		t.Error("accepted round 0 injection")
	}
	// Rumor ids are int16: one injection more than that must be rejected
	// with the limit named, not wrap to a negative id.
	many := make([]Injection, math.MaxInt16+1)
	for i := range many {
		many[i] = Injection{Round: 1}
	}
	_, err := runMultiRumor(MultiRumorConfig{N: 10, Injections: many}, s, nil, nil)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(math.MaxInt16)) {
		t.Errorf("%d injections: error %v, want one naming the limit %d", len(many), err, math.MaxInt16)
	}
}

func TestSingleRumorMatchesRun(t *testing.T) {
	// One rumor injected at round 1 is exactly the Theorem 4 setting; the
	// round counts should be statistically comparable to spread(Dating).
	s := rng.New(2)
	var multi, single float64
	const reps = 8
	for rep := 0; rep < reps; rep++ {
		mr, err := runMultiRumor(MultiRumorConfig{
			N:          300,
			Injections: []Injection{{Round: 1, Source: 0}},
		}, s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !mr.Completed {
			t.Fatal("incomplete")
		}
		multi += float64(mr.Rounds)

		sr, err := spread(Config{Algorithm: Dating, N: 300, Source: 0}, s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		single += float64(sr.Rounds)
	}
	if multi > 1.5*single || single > 1.5*multi {
		t.Fatalf("single-rumor multi run (%.1f) diverges from Run (%.1f)", multi/reps, single/reps)
	}
}

func TestMultiRumorAllDelivered(t *testing.T) {
	s := rng.New(3)
	const n = 200
	cfg := MultiRumorConfig{
		N: n,
		Injections: []Injection{
			{Round: 1, Source: 0},
			{Round: 1, Source: 50},
			{Round: 5, Source: 100},
			{Round: 10, Source: 150},
		},
	}
	res, err := runMultiRumor(cfg, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds", res.Rounds)
	}
	for r, done := range res.PerRumorDone {
		if done == 0 {
			t.Fatalf("rumor %d never completed", r)
		}
		if done < cfg.Injections[r].Round {
			t.Fatalf("rumor %d completed at %d before injection at %d", r, done, cfg.Injections[r].Round)
		}
	}
	last := res.History[len(res.History)-1]
	if last != n*len(cfg.Injections) {
		t.Fatalf("final knowledge %d, want %d", last, n*len(cfg.Injections))
	}
}

func TestMultiRumorKnowledgeMonotone(t *testing.T) {
	s := rng.New(4)
	res, err := runMultiRumor(MultiRumorConfig{
		N:          150,
		Injections: []Injection{{Round: 1, Source: 0}, {Round: 3, Source: 1}},
	}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i, k := range res.History {
		if k < prev {
			t.Fatalf("knowledge dropped at round %d", i+1)
		}
		prev = k
	}
}

func TestMultiRumorLateInjection(t *testing.T) {
	// A rumor injected late must still complete; its completion round is
	// at least its injection round plus a spreading period.
	s := rng.New(5)
	res, err := runMultiRumor(MultiRumorConfig{
		N: 200,
		Injections: []Injection{
			{Round: 1, Source: 0},
			{Round: 30, Source: 7},
		},
	}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.PerRumorDone[1] <= 30 {
		t.Fatalf("late rumor done at %d, injected at 30", res.PerRumorDone[1])
	}
}

func TestMultiRumorHeterogeneous(t *testing.T) {
	s := rng.New(7)
	p, err := bandwidth.Zipf(200, 1.0, 8, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runMultiRumor(MultiRumorConfig{
		Profile:    p,
		Injections: []Injection{{Round: 1, Source: 0}, {Round: 1, Source: 100}},
	}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("heterogeneous multi-rumor incomplete after %d rounds", res.Rounds)
	}
}

func TestMultiRumorMaxRounds(t *testing.T) {
	s := rng.New(8)
	res, err := runMultiRumor(MultiRumorConfig{
		N:          5000,
		Injections: []Injection{{Round: 1, Source: 0}},
		MaxRounds:  2,
	}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Rounds > 2 {
		t.Fatalf("round cap violated: %+v", res.Rounds)
	}
}

func TestMultiRumorReproducible(t *testing.T) {
	// Multi-rumor rounds ride the seeded engine: runs are reproducible for
	// a fixed seed and complete.
	cfg := MultiRumorConfig{
		N:          600,
		Injections: []Injection{{Round: 1, Source: 0}, {Round: 3, Source: 99}},
	}
	run := func() MultiRumorResult {
		res, err := runMultiRumor(cfg, rng.New(21), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("multi-rumor run incomplete")
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs with the same seed diverged")
	}
}

func TestMultiRumorBudgetPureSpeedKnob(t *testing.T) {
	// Like single-rumor spreading, multirumor rounds draw their workers
	// from the shared budget: bit-identical for every budget size.
	run := func(workers int) MultiRumorResult {
		var b *par.Budget
		if workers > 1 {
			var err error
			b, err = par.NewBudget(workers)
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := runMultiRumor(MultiRumorConfig{
			N: 600,
			Injections: []Injection{
				{Round: 1, Source: 0},
				{Round: 4, Source: 17},
			},
		}, rng.New(13), b, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if !ref.Completed {
		t.Fatalf("incomplete after %d rounds", ref.Rounds)
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverged from workers=1", workers)
		}
	}
}
