package gossip

import (
	"reflect"
	"testing"

	"repro/internal/par"
	"repro/internal/rng"
)

// runWith executes a spreading run with a worker budget of the given size.
func runWith(t *testing.T, cfg Config, seed uint64, workers int) Result {
	t.Helper()
	var b *par.Budget
	if workers > 1 {
		var err error
		b, err = par.NewBudget(workers)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := spread(cfg, rng.New(seed), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDatingParallelWorkers(t *testing.T) {
	// The seeded engine behind the spreader: completes in O(log n) rounds,
	// never exceeds unit bandwidth, and is reproducible for a fixed seed
	// whatever the budget size.
	run := func() Result {
		return runWith(t, Config{Algorithm: Dating, N: 2048}, 42, 4)
	}
	a := run()
	if !a.Completed {
		t.Fatalf("incomplete after %d rounds", a.Rounds)
	}
	if a.Rounds < 10 || a.Rounds > 80 {
		t.Fatalf("%d rounds is not O(log n) at n=2048", a.Rounds)
	}
	if a.MaxInLoad > 1 || a.MaxOutLoad > 1 {
		t.Fatalf("parallel dating exceeded unit bandwidth: in %d out %d", a.MaxInLoad, a.MaxOutLoad)
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatal("two runs with the same seed diverged")
	}
}

func TestDatingParallelWithChurn(t *testing.T) {
	res := runWith(t, Config{Algorithm: Dating, N: 800, CrashProb: 0.01}, 7, 3)
	if !res.Completed {
		t.Fatalf("incomplete after %d rounds (%d crashed)", res.Rounds, res.Crashed)
	}
	if res.MaxInLoad > 1 || res.MaxOutLoad > 1 {
		t.Fatalf("churny parallel dating exceeded unit bandwidth: in %d out %d", res.MaxInLoad, res.MaxOutLoad)
	}
}

func TestDatingWorkersPureSpeedKnob(t *testing.T) {
	// The budget size is a pure speed knob: the whole run — rounds, history,
	// loads — is bit-identical for every worker count, including under churn
	// (crash sampling shares the run stream with the per-round seed draws).
	for _, crash := range []float64{0, 0.01} {
		run := func(workers int) Result {
			return runWith(t, Config{Algorithm: Dating, N: 3000, CrashProb: crash}, 11, workers)
		}
		ref := run(1)
		if !ref.Completed {
			t.Fatalf("crash=%v: incomplete after %d rounds", crash, ref.Rounds)
		}
		for _, workers := range []int{2, 8} {
			if got := run(workers); !reflect.DeepEqual(got, ref) {
				t.Fatalf("crash=%v: workers=%d diverged from workers=1 (%d vs %d rounds)",
					crash, workers, got.Rounds, ref.Rounds)
			}
		}
	}
}
