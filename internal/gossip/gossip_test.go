package gossip

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestAlgorithmNames(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Algorithms() {
		name := a.String()
		if seen[name] || strings.HasPrefix(name, "algorithm(") {
			t.Fatalf("%d: name %q is a duplicate or a fallback", int(a), name)
		}
		seen[name] = true
	}
	if got := Algorithm(99).String(); got != "algorithm(99)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestRunValidation(t *testing.T) {
	s := rng.New(1)
	if _, err := spread(Config{Algorithm: Push}, s, nil, nil); err == nil {
		t.Error("accepted missing N")
	}
	if _, err := spread(Config{Algorithm: Push, N: 5, Source: 5}, s, nil, nil); err == nil {
		t.Error("accepted out-of-range source")
	}
	for _, p := range []float64{1.5, 1, -0.1, math.NaN()} {
		if _, err := spread(Config{Algorithm: Dating, N: 64, CrashProb: p}, s, nil, nil); err == nil {
			t.Errorf("accepted crash probability %v", p)
		}
	}
	if _, err := spread(Config{Algorithm: Algorithm(42), N: 5}, s, nil, nil); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestAllAlgorithmsComplete(t *testing.T) {
	s := rng.New(2)
	const n = 300
	for _, a := range Algorithms() {
		res, err := spread(Config{Algorithm: a, N: n, Source: 0}, s, nil, nil)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !res.Completed {
			t.Fatalf("%v did not complete in %d rounds", a, res.Rounds)
		}
		if res.History[len(res.History)-1] != n {
			t.Fatalf("%v: final informed count %d", a, res.History[len(res.History)-1])
		}
	}
}

func TestHistoryMonotone(t *testing.T) {
	// Informed nodes never forget the rumor.
	s := rng.New(3)
	for _, a := range Algorithms() {
		res, err := spread(Config{Algorithm: a, N: 200, Source: 0}, s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0
		for r, c := range res.History {
			if c < prev {
				t.Fatalf("%v: informed count dropped at round %d: %v", a, r+1, res.History)
			}
			prev = c
		}
	}
}

func TestRoundsLogarithmic(t *testing.T) {
	// Theorem 4: O(log n) rounds. Fit rounds against log2(n) and require a
	// good linear fit with a sane slope; also check the absolute ratio.
	s := rng.New(4)
	ns := []int{64, 256, 1024, 4096}
	var means []float64
	for _, n := range ns {
		var acc stats.Accumulator
		for rep := 0; rep < 12; rep++ {
			res, err := spread(Config{Algorithm: Dating, N: n, Source: 0}, s, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("n=%d did not complete", n)
			}
			acc.Add(float64(res.Rounds))
		}
		means = append(means, acc.Mean())
		ratio := acc.Mean() / math.Log2(float64(n))
		if ratio > 6 {
			t.Errorf("n=%d: rounds/log2(n) = %.2f, too high for O(log n)", n, ratio)
		}
	}
	fit, err := stats.FitLogN(ns, means)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.95 {
		t.Errorf("rounds vs log n fit R2 = %.3f (means %v)", fit.R2, means)
	}
	if fit.Slope <= 0 {
		t.Errorf("rounds do not grow with log n: slope %.3f", fit.Slope)
	}
}

func TestFigure2Ordering(t *testing.T) {
	// Paper, Figure 2: best-to-worst order is PUSH&PULL, fair PUSH&PULL,
	// PULL, fair PULL, PUSH, dating. Verify the aggregate ordering at a
	// moderate n; adjacent pairs can be close, so compare with a small
	// slack but require the global trend (push-pull fastest, dating
	// slowest, dating < 2x fair push-pull).
	s := rng.New(5)
	const n, reps = 1024, 20
	mean := map[Algorithm]float64{}
	for _, a := range Algorithms() {
		var acc stats.Accumulator
		for rep := 0; rep < reps; rep++ {
			res, err := spread(Config{Algorithm: a, N: n, Source: 0}, s, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(float64(res.Rounds))
		}
		mean[a] = acc.Mean()
	}
	if !(mean[PushPull] < mean[Pull] && mean[Pull] < mean[Push] && mean[Push] < mean[Dating]) {
		t.Errorf("ordering violated: %v", mean)
	}
	if mean[FairPushPull] < mean[PushPull] {
		t.Errorf("fair push-pull (%v) beat push-pull (%v)", mean[FairPushPull], mean[PushPull])
	}
	if mean[FairPull] < mean[Pull] {
		t.Errorf("fair pull (%v) beat pull (%v)", mean[FairPull], mean[Pull])
	}
	// The paper's headline comparison: PUSH&PULL variants benefit from
	// double communication per round and unfair variants from unbounded
	// bandwidth, so the fair comparators are the PUSH and fair PULL
	// methods; dating must be less than 2x slower than each.
	if mean[Dating] >= 2*mean[Push] {
		t.Errorf("dating %.2f not within 2x of push %.2f", mean[Dating], mean[Push])
	}
	if mean[Dating] >= 2*mean[FairPull] {
		t.Errorf("dating %.2f not within 2x of fair pull %.2f", mean[Dating], mean[FairPull])
	}
}

func TestDatingRespectsBandwidthBaselinesDoNot(t *testing.T) {
	s := rng.New(6)
	const n = 2000
	resD, err := spread(Config{Algorithm: Dating, N: n, Source: 0}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resD.MaxInLoad > 1 || resD.MaxOutLoad > 1 {
		t.Fatalf("dating exceeded unit bandwidth: in %d out %d", resD.MaxInLoad, resD.MaxOutLoad)
	}
	resP, err := spread(Config{Algorithm: Push, N: n, Source: 0}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resP.MaxInLoad <= 1 {
		t.Errorf("push never overloaded a receiver at n=%d, which is implausible", n)
	}
	resL, err := spread(Config{Algorithm: Pull, N: n, Source: 0}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resL.MaxOutLoad <= 1 {
		t.Errorf("pull never overloaded a server at n=%d, which is implausible", n)
	}
	resF, err := spread(Config{Algorithm: FairPull, N: n, Source: 0}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resF.MaxOutLoad > 1 {
		t.Errorf("fair pull served %d requests from one node in a round", resF.MaxOutLoad)
	}
}

func TestDatingWithDHTSelector(t *testing.T) {
	// The headline property: spreading works without uniform selection.
	s := rng.New(7)
	weights := make([]float64, 500)
	for i := range weights {
		weights[i] = 1 + float64(i%7) // lumpy but everywhere-positive
	}
	sel, err := core.NewWeightedSelector(weights)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spread(Config{Algorithm: Dating, N: 500, Selector: sel, Source: 3}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("DHT-like dating spread did not complete in %d rounds", res.Rounds)
	}
}

func TestDatingHeterogeneousProfile(t *testing.T) {
	s := rng.New(8)
	p, err := bandwidth.Zipf(400, 1.0, 16, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spread(Config{Algorithm: Dating, Profile: p, Source: 0}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("heterogeneous spread incomplete after %d rounds", res.Rounds)
	}
	// Load bounds must match the profile.
	maxIn, maxOut := 0, 0
	for i := 0; i < p.N(); i++ {
		if p.In[i] > maxIn {
			maxIn = p.In[i]
		}
		if p.Out[i] > maxOut {
			maxOut = p.Out[i]
		}
	}
	if res.MaxInLoad > maxIn || res.MaxOutLoad > maxOut {
		t.Fatalf("loads (%d,%d) exceed profile maxima (%d,%d)", res.MaxInLoad, res.MaxOutLoad, maxIn, maxOut)
	}
}

func TestCrashToleranceDating(t *testing.T) {
	s := rng.New(9)
	res, err := spread(Config{Algorithm: Dating, N: 500, Source: 0, CrashProb: 0.02}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("dating with churn incomplete after %d rounds", res.Rounds)
	}
	if res.Crashed == 0 {
		t.Fatal("no node crashed at p=0.02 over a whole run; suspicious")
	}
}

func TestCrashedNodesNeverInformed(t *testing.T) {
	s := rng.New(10)
	var sawDeadInformed bool
	crashed := make(map[int]bool)
	cfg := Config{
		Algorithm: Dating, N: 300, Source: 0, CrashProb: 0.05,
		OnRound: func(round int, informed []bool) {
			// Completion ignores dead nodes; this hook only verifies the
			// count bookkeeping stays in range.
			c := 0
			for _, b := range informed {
				if b {
					c++
				}
			}
			if c < 1 || c > 300 {
				sawDeadInformed = true
			}
		},
	}
	if _, err := spread(cfg, s, nil, nil); err != nil {
		t.Fatal(err)
	}
	if sawDeadInformed {
		t.Fatal("informed count out of range during churn")
	}
	_ = crashed
}

func TestMaxRoundsCapRespected(t *testing.T) {
	s := rng.New(11)
	res, err := spread(Config{Algorithm: Dating, N: 5000, Source: 0, MaxRounds: 2}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 2 {
		t.Fatalf("exceeded round cap: %d", res.Rounds)
	}
	if res.Completed {
		t.Fatal("cannot inform 5000 nodes in 2 rounds from bandwidth 1")
	}
}

func TestOnRoundObserverCalledEveryRound(t *testing.T) {
	s := rng.New(12)
	calls := 0
	res, err := spread(Config{
		Algorithm: PushPull, N: 128, Source: 0,
		OnRound: func(round int, informed []bool) {
			calls++
			if round != calls {
				t.Fatalf("round numbering broken: got %d at call %d", round, calls)
			}
			if len(informed) != 128 {
				t.Fatalf("informed slice has %d entries", len(informed))
			}
		},
	}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Rounds {
		t.Fatalf("observer called %d times over %d rounds", calls, res.Rounds)
	}
}

func TestItHistoryTracksOutBandwidth(t *testing.T) {
	s := rng.New(13)
	p, _ := bandwidth.Bimodal(100, 10, 5, 1)
	res, err := spread(Config{Algorithm: Dating, Profile: p, Source: 0}, s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// I_t starts at least at the source's bandwidth and ends at Bout.
	if res.ItHistory[0] < 5 {
		t.Fatalf("I_1 = %d, source has bandwidth 5", res.ItHistory[0])
	}
	if res.Completed {
		last := res.ItHistory[len(res.ItHistory)-1]
		if last != p.TotalOut() {
			t.Fatalf("final I_t = %d, want Bout = %d", last, p.TotalOut())
		}
	}
}

func TestPhaseBoundaries(t *testing.T) {
	it := []int{1, 2, 5, 12, 30, 70, 100, 100}
	p1, p2, p3 := PhaseBoundaries(it, 100, 16)
	// threshold1 = max(100/16, log2 16) = max(6, 4) = 6 -> round 4 (it=12).
	if p1 != 4 {
		t.Fatalf("phase 1 end = %d, want 4", p1)
	}
	// threshold2 = 50 -> round 6 (it=70).
	if p2 != 6 {
		t.Fatalf("phase 2 end = %d, want 6", p2)
	}
	if p3 != 8 {
		t.Fatalf("phase 3 end = %d, want 8", p3)
	}
	if a, b, c := PhaseBoundaries(nil, 10, 0); a != 0 || b != 0 || c != 0 {
		t.Fatal("degenerate input should give zeros")
	}
}

func TestHierarchicalRichBeforePoor(t *testing.T) {
	// Theorem 10: rich nodes complete earlier than the whole network.
	s := rng.New(14)
	var richSum, totalSum float64
	const reps = 10
	for rep := 0; rep < reps; rep++ {
		hres, err := RunHierarchical(600, 60, 16, s.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		if !hres.Completed {
			t.Fatal("hierarchical run incomplete")
		}
		if hres.RichRounds > hres.TotalRounds {
			t.Fatalf("rich completed after total: %d > %d", hres.RichRounds, hres.TotalRounds)
		}
		richSum += float64(hres.RichRounds)
		totalSum += float64(hres.TotalRounds)
	}
	if richSum/reps >= totalSum/reps {
		t.Fatalf("rich nodes (%.1f rounds) not faster than network (%.1f rounds)", richSum/reps, totalSum/reps)
	}
}

func TestHierarchicalValidation(t *testing.T) {
	s := rng.New(15)
	if _, err := RunHierarchical(10, 0, 4, s.Uint64()); err == nil {
		t.Error("accepted zero rich nodes")
	}
	if _, err := RunHierarchical(10, 11, 4, s.Uint64()); err == nil {
		t.Error("accepted rich > n")
	}
}

func TestSourceChoiceIrrelevantToCompletion(t *testing.T) {
	s := rng.New(16)
	for _, src := range []int{0, 17, 99} {
		res, err := spread(Config{Algorithm: Dating, N: 100, Source: src}, s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("source %d: incomplete", src)
		}
	}
}

func TestTwoNodeNetwork(t *testing.T) {
	s := rng.New(17)
	for _, a := range Algorithms() {
		res, err := spread(Config{Algorithm: a, N: 2, Source: 0}, s, nil, nil)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !res.Completed {
			t.Fatalf("%v cannot inform 2 nodes in %d rounds", a, res.Rounds)
		}
	}
}
