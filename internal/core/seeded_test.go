package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/par"
)

func TestSeededRoundWorkerIndependence(t *testing.T) {
	// The seeded profile round is a pure function of (profile, selector,
	// seed): every worker count gives the same bits.
	profile, err := bandwidth.Geometric(5000, 16)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewUniformSelector(5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		var ref RoundResult
		for _, workers := range []int{1, 2, 4, 8} {
			svc, err := NewService(profile, sel)
			if err != nil {
				t.Fatal(err)
			}
			res, err := svc.RunRoundSeeded(seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateCapacities(res, profile); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if workers == 1 {
				ref = res
				if len(ref.Dates) == 0 {
					t.Fatal("no dates arranged")
				}
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("seed %d: workers=%d diverged from workers=1 (%d vs %d dates)",
					seed, workers, len(res.Dates), len(ref.Dates))
			}
		}
	}
}

func TestSeededRoundScratchReuse(t *testing.T) {
	// Reusing one Service across unfiltered and filtered rounds at other
	// worker counts must not leak state between the round shapes.
	profile := bandwidth.Homogeneous(800, 2)
	sel, _ := NewUniformSelector(800)
	svc, err := NewService(profile, sel)
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc.RunRoundSeeded(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunRoundSeededFiltered(99, 1, func(i int) bool { return i%3 != 0 }); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunRoundSeeded(5, 3); err != nil {
		t.Fatal(err)
	}
	again, err := svc.RunRoundSeeded(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("interleaving other round paths changed a seeded round's result")
	}
}

func TestSeededRoundMatchesArranger(t *testing.T) {
	// An unfiltered seeded round uses the Arranger's exact derivation
	// scheme, so it must arrange the very same dates as
	// Arranger.Arrange(profile.Out, profile.In, seed, ·).
	profile, err := bandwidth.Geometric(2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewUniformSelector(2000)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(profile, sel)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := NewArranger(sel)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1234
	res, err := svc.RunRoundSeeded(seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	dates, err := arr.Arrange(profile.Out, profile.In, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Dates, dates) {
		t.Fatalf("seeded round and Arranger disagree: %d vs %d dates", len(res.Dates), len(dates))
	}
}

func TestSeededRoundFilteredWorkerIndependence(t *testing.T) {
	profile := bandwidth.Homogeneous(3000, 1)
	sel, _ := NewUniformSelector(3000)
	alive := func(i int) bool { return i%7 != 0 }
	var ref RoundResult
	for _, workers := range []int{1, 4} {
		svc, err := NewService(profile, sel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := svc.RunRoundSeededFiltered(99, workers, alive)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Dates {
			if !alive(int(d.Sender)) || !alive(int(d.Receiver)) {
				t.Fatalf("date %v involves a dead node", d)
			}
		}
		if workers == 1 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("filtered seeded round: workers=%d diverged", workers)
		}
	}
}

func TestSeededRoundValidation(t *testing.T) {
	profile := bandwidth.Homogeneous(10, 1)
	sel, _ := NewUniformSelector(10)
	svc, _ := NewService(profile, sel)
	if _, err := svc.RunRoundSeeded(1, 0); err == nil {
		t.Error("accepted workers = 0")
	}
}

func TestSeededFilteredChurnRebalance(t *testing.T) {
	// Under skewed churn — every crash concentrated in the low id half —
	// cuts by profile weight would leave the low-half workers idle. The
	// engine cuts sender shards by live weight; the cuts must split the
	// surviving weight evenly, and (because seeded randomness derives per
	// node, not per worker) the round's output must stay bit-identical to
	// the workers=1 round.
	const n = 4000
	profile := bandwidth.Homogeneous(n, 2)
	sel, _ := NewUniformSelector(n)
	alive := func(i int) bool { return i >= n/2 } // low half crashed
	svc, err := NewService(profile, sel)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	res, err := svc.RunRoundSeededFiltered(31, workers, alive)
	if err != nil {
		t.Fatal(err)
	}

	// The cuts were built for this round's live set: no shard may hold more
	// than its fair share of the surviving nodes (plus one boundary node).
	// Copy: the slice is reused by later rounds' BalancedCuts calls.
	cut := append([]int(nil), svc.eng.senderCut...)
	if len(cut) != workers+1 {
		t.Fatalf("live cuts not computed: %v", cut)
	}
	fair := (n / 2) / workers
	for w := 0; w < workers; w++ {
		live := 0
		for i := cut[w]; i < cut[w+1]; i++ {
			if alive(i) {
				live++
			}
		}
		if live > fair+1 {
			t.Fatalf("worker %d shard [%d,%d) holds %d live nodes, fair share is %d",
				w, cut[w], cut[w+1], live, fair)
		}
	}
	// Profile-weight cuts would give workers 0 and 1 zero live nodes; these
	// must not.
	for w := 0; w < workers; w++ {
		live := 0
		for i := cut[w]; i < cut[w+1]; i++ {
			if alive(i) {
				live++
			}
		}
		if live == 0 {
			t.Fatalf("worker %d still idle after rebalancing: shard [%d,%d)", w, cut[w], cut[w+1])
		}
	}

	// Rebalancing moves work, never bits.
	ref, err := svc.RunRoundSeededFiltered(31, 1, alive)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatal("churn-rebalanced round diverged from the serial round")
	}
}

// BenchmarkSeededRound times one unit-bandwidth uniform round at n=100k on
// one worker (the cost quoted in engine.go), and the benchmark's dating-het
// round — RunRoundShared on Bimodal(150 000, 15 000, 8, 1) — on budgets of
// one and two workers: het-2 against het-1 is what the round's second core
// buys (engine.go's worker isolation).
func BenchmarkSeededRound(b *testing.B) {
	const n = 100_000
	profile := bandwidth.Homogeneous(n, 1)
	sel, _ := NewUniformSelector(n)
	b.Run("seeded-1", func(b *testing.B) {
		svc, _ := NewService(profile, sel)
		for i := 0; i < b.N; i++ {
			if _, err := svc.RunRoundSeeded(uint64(i), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	const hetN = 150_000
	het, err := bandwidth.Bimodal(hetN, hetN/10, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	hetSel, _ := NewUniformSelector(hetN)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("het-%d", workers), func(b *testing.B) {
			svc, _ := NewService(het, hetSel)
			budget, err := par.NewBudget(workers)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := svc.RunRoundShared(uint64(i), budget, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
