package gossip

import (
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestTheorem10RichRoundsShrinkWithBandwidth(t *testing.T) {
	// Theorem 10: rich nodes are informed within O(log n / log(m/n))
	// rounds, so raising the rich bandwidth must shrink their completion
	// time — the denominator grows with m/n.
	if testing.Short() {
		t.Skip("runs many hierarchical spreads")
	}
	s := rng.New(42)
	const n, reps = 1024, 8
	var prev float64 = 1e9
	for _, richB := range []int{4, 16, 64} {
		var acc stats.Accumulator
		for rep := 0; rep < reps; rep++ {
			hr, err := RunHierarchical(n, n/10, richB, s)
			if err != nil {
				t.Fatal(err)
			}
			if !hr.Completed {
				t.Fatalf("richB=%d incomplete", richB)
			}
			acc.Add(float64(hr.RichRounds))
		}
		// Strict decrease is noisy at 8 reps; allow a small tolerance but
		// demand the overall trend.
		if acc.Mean() > prev+0.5 {
			t.Errorf("richB=%d: rich rounds %.2f did not shrink from %.2f", richB, acc.Mean(), prev)
		}
		prev = acc.Mean()
	}
	if prev > 5 {
		t.Errorf("at richB=64 rich completion takes %.1f rounds; expected near-constant", prev)
	}
}

func TestCorollary11WeakSource(t *testing.T) {
	// Corollary 11: even when the rumor starts at a WEAK node, average-
	// bandwidth nodes are informed after an O(1) expected handoff plus the
	// Theorem 10 time. Verify completion and that rich completion still
	// precedes total completion when the source is poor.
	if testing.Short() {
		t.Skip("runs several spreads")
	}
	s := rng.New(43)
	const n, rich, richB = 800, 80, 16
	profile, err := bandwidth.Bimodal(n, rich, richB, 1)
	if err != nil {
		t.Fatal(err)
	}
	var richRounds, totalRounds stats.Accumulator
	const reps = 8
	for rep := 0; rep < reps; rep++ {
		var richDone int
		cfg := Config{
			Algorithm: Dating,
			Profile:   profile,
			Source:    n - 1, // a weak node
			OnRound: func(round int, informed []bool) {
				if richDone > 0 {
					return
				}
				for i := 0; i < rich; i++ {
					if !informed[i] {
						return
					}
				}
				richDone = round
			},
		}
		res, err := Run(cfg, s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("weak-source run incomplete")
		}
		if richDone == 0 {
			richDone = res.Rounds
		}
		richRounds.Add(float64(richDone))
		totalRounds.Add(float64(res.Rounds))
	}
	if richRounds.Mean() >= totalRounds.Mean() {
		t.Fatalf("rich tier (%.1f) not ahead of network (%.1f) from a weak source",
			richRounds.Mean(), totalRounds.Mean())
	}
}
