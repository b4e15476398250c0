package gossip

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/run"
)

func consRun(t *testing.T, cfg ConsensusConfig, o liveOptions) ConsensusResult {
	t.Helper()
	res, err := runConsensus(cfg, o, roundClock)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConsensusShardIdentity pins the headline determinism claim for the
// consensus spec: the shard count is a pure speed knob — the full result
// (share histories, winner, traffic) is bit-identical at every count, under
// every merge rule.
func TestConsensusShardIdentity(t *testing.T) {
	g := mustBA(t, 2000, 3, 7)
	for _, rule := range []MergeRule{RuleMajority, RuleLatest, RuleWeighted} {
		cfg := ConsensusConfig{Variants: 3, Graph: g, Seeding: SeedDistinct, Rule: rule, MaxRounds: 150}
		if rule == RuleWeighted {
			p, err := bandwidth.Zipf(2000, 1.2, 8, 2.0, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Profile = p
		}
		base := consRun(t, cfg, liveOptions{Seed: 42, Shards: 1})
		if base.Rounds == 0 || len(base.ShareHist) != base.Rounds {
			t.Fatalf("%v: degenerate base run: %+v", rule, base)
		}
		for _, shards := range []int{2, 4, 8} {
			res := consRun(t, cfg, liveOptions{Seed: 42, Shards: shards})
			if fmt.Sprint(res) != fmt.Sprint(base) {
				t.Errorf("%v shards=%d diverged:\n got %+v\nwant %+v", rule, shards, res, base)
			}
		}
	}
}

// TestConsensusEngineIdentity pins that the sequential engine, the test
// oracle, reproduces the sharded runtime bit for bit under every merge rule
// — both seed every peer-step's stream alike, and the rules themselves
// consume no randomness.
func TestConsensusEngineIdentity(t *testing.T) {
	g := mustBA(t, 800, 2, 3)
	for _, rule := range []MergeRule{RuleMajority, RuleLatest, RuleWeighted} {
		cfg := ConsensusConfig{Variants: 2, Graph: g, Seeding: SeedHubLeaf, Rule: rule, MaxRounds: 120}
		if rule == RuleWeighted {
			p, err := bandwidth.Zipf(800, 1.2, 8, 2.0, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Profile = p
		}
		sharded := consRun(t, cfg, liveOptions{Seed: 9, Shards: 3})
		oracle, err := runConsensus(cfg, liveOptions{Seed: 9}, oracleClock)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(oracle) != fmt.Sprint(sharded) {
			t.Errorf("%v: oracle diverged:\n got %+v\nwant %+v", rule, oracle, sharded)
		}
	}
}

// TestConsensusSharesSumToDecided pins the invariant between the two
// histories a consensus run reports: after every round the per-variant
// shares sum to the decided count, which never exceeds n — under every
// merge rule and at every shard count. The latest-rule run is the one
// seedcompat_test.go pins at n = 1000; the other rules share its graph and
// seed.
func TestConsensusSharesSumToDecided(t *testing.T) {
	const n = 1000
	g := mustBA(t, n, 3, 0xC0FFEE)
	seed := run.SeedFor(0xC0FFEE, run.DomainConsensus)
	for _, rule := range []MergeRule{RuleLatest, RuleMajority, RuleWeighted} {
		cfg := ConsensusConfig{Variants: 3, Graph: g, Seeding: SeedDistinct, Rule: rule}
		if rule == RuleWeighted {
			p, err := bandwidth.Zipf(n, 1.2, 8, 2.0, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Profile = p
		}
		for _, shards := range []int{1, 2, 4} {
			res := consRun(t, cfg, liveOptions{Seed: seed, Shards: shards})
			if res.Rounds == 0 || len(res.History) != res.Rounds || len(res.ShareHist) != res.Rounds {
				t.Fatalf("%v shards=%d: %d rounds, %d history entries, %d share rows",
					rule, shards, res.Rounds, len(res.History), len(res.ShareHist))
			}
			for r, shares := range res.ShareHist {
				sum := 0
				for _, c := range shares {
					sum += c
				}
				if sum != res.History[r] || sum > n {
					t.Fatalf("%v shards=%d round %d: shares %v sum to %d, decided %d, n %d",
						rule, shards, r+1, shares, sum, res.History[r], n)
				}
			}
		}
	}
}

// TestConsensusShardLocalState drives the sharded engine at several shard
// counts under -race: the shard-owned variant/stamp/heard blocks mean no two
// workers ever write the same slice, and the race detector pins it. The
// latest rule floods to consensus; the majority rule on a sparse scale-free
// graph locks in local pluralities below the threshold (the capped run is
// the expected outcome there), but every peer still ends up decided.
func TestConsensusShardLocalState(t *testing.T) {
	g := mustBA(t, 1200, 3, 11)
	for _, rule := range []MergeRule{RuleMajority, RuleLatest} {
		for _, shards := range []int{1, 4} {
			res := consRun(t, ConsensusConfig{Variants: 3, Graph: g, Rule: rule, MaxRounds: 200},
				liveOptions{Seed: 4, Shards: shards})
			if rule == RuleLatest && !res.Completed {
				t.Errorf("rule=%v shards=%d: run did not complete", rule, shards)
			}
			if last := res.History[len(res.History)-1]; rule == RuleMajority && last != 1200 {
				t.Errorf("rule=%v shards=%d: %d of 1200 peers decided", rule, shards, last)
			}
		}
	}
}

// TestConsensusSingleVariantMatchesPush pins the K=1 degeneration: with one
// variant there is nothing to disagree about, consensus is plain single-
// rumor push spread over the graph, and on the complete graph at
// Threshold=1 the final agreement equals the round-abstract push baseline's
// final spread fraction (both 1).
func TestConsensusSingleVariantMatchesPush(t *testing.T) {
	n := 300
	g, err := graph.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	res := consRun(t, ConsensusConfig{Variants: 1, Graph: g, Rule: RuleMajority, Threshold: 1},
		liveOptions{Seed: 21, Shards: 2})
	if !res.Completed {
		t.Fatal("K=1 complete-graph run did not complete")
	}
	if res.Winner != 1 {
		t.Errorf("K=1 winner %d, want 1", res.Winner)
	}
	push, err := spread(Config{Algorithm: Push, N: n, Source: 0}, rng.New(21), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pushFrac := float64(push.History[len(push.History)-1]) / float64(n)
	if res.Agreement != pushFrac {
		t.Errorf("K=1 final agreement %v, push baseline %v", res.Agreement, pushFrac)
	}
	if res.Agreement != 1 {
		t.Errorf("K=1 complete-graph agreement %v, want 1", res.Agreement)
	}
	// The decided-peer trajectory is monotone like any rumor history.
	for i := 1; i < len(res.History); i++ {
		if res.History[i] < res.History[i-1] {
			t.Fatalf("decided count decreased at round %d: %v", i+1, res.History)
		}
	}
}

// TestConsensusTieResolution pins the deterministic tie rule of the
// majority merge: only a strictly greater tally displaces the running best,
// so exact ties resolve to the lowest variant id — and therefore identical
// runs are byte-identical, with no hidden iteration-order dependence.
func TestConsensusTieResolution(t *testing.T) {
	cases := []struct {
		heard []float64
		want  int
	}{
		{[]float64{0, 0, 0}, 0},          // heard nothing: stay undecided
		{[]float64{2, 2}, 1},             // exact tie: lowest id wins
		{[]float64{1, 3, 3}, 2},          // tie among later variants
		{[]float64{0.5, 0.5, 0.5, 1}, 4}, // strict winner beats ties
	}
	for _, c := range cases {
		if got := argmaxVariant(c.heard); got != c.want {
			t.Errorf("argmaxVariant(%v) = %d, want %d", c.heard, got, c.want)
		}
	}
	// A run built entirely from tie-prone integer tallies replays exactly.
	g := mustBA(t, 600, 2, 29)
	cfg := ConsensusConfig{Variants: 5, Graph: g, Seeding: SeedClustered, Rule: RuleMajority, MaxRounds: 150}
	a := consRun(t, cfg, liveOptions{Seed: 3, Shards: 4})
	b := consRun(t, cfg, liveOptions{Seed: 3, Shards: 4})
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("identical majority runs diverged:\n got %+v\nwant %+v", b, a)
	}
}

// TestConsensusWeightedUniformEqualsMajority pins the weighted rule's
// degeneration: with a homogeneous profile every message weighs the same
// constant, so weighted-by-profile is exactly majority-of-heard — full
// result equality, not just the same winner (the tallies are scaled
// integers, so float arithmetic stays exact).
func TestConsensusWeightedUniformEqualsMajority(t *testing.T) {
	g := mustBA(t, 1000, 2, 17)
	base := ConsensusConfig{Variants: 3, Graph: g, Seeding: SeedDistinct, MaxRounds: 150}
	maj := base
	maj.Rule = RuleMajority
	wtd := base
	wtd.Rule = RuleWeighted
	wtd.Profile = bandwidth.Homogeneous(1000, 4)
	mres := consRun(t, maj, liveOptions{Seed: 13, Shards: 2})
	wres := consRun(t, wtd, liveOptions{Seed: 13, Shards: 2})
	if fmt.Sprint(mres.ShareHist) != fmt.Sprint(wres.ShareHist) ||
		mres.Winner != wres.Winner || mres.Rounds != wres.Rounds {
		t.Errorf("uniform weighted diverged from majority:\n got %+v\nwant %+v", wres, mres)
	}
}

// TestConsensusLatestRuleFloods pins the latest-timestamp semantics: the
// highest-stamped seed's variant (the last in canonical order, variant K)
// floods monotonically and wins on any connected graph.
func TestConsensusLatestRuleFloods(t *testing.T) {
	g := mustBA(t, 1500, 3, 23)
	res := consRun(t, ConsensusConfig{Variants: 4, Graph: g, Seeding: SeedDistinct, Rule: RuleLatest},
		liveOptions{Seed: 11, Shards: 4})
	if !res.Completed {
		t.Fatal("latest-rule run did not converge")
	}
	if res.Winner != 4 {
		t.Errorf("latest-rule winner %d, want the last-stamped variant 4", res.Winner)
	}
	last := res.ShareHist[len(res.ShareHist)-1]
	for i := 1; i < len(res.ShareHist); i++ {
		if res.ShareHist[i][3] < res.ShareHist[i-1][3] {
			t.Fatalf("winning variant's share decreased at round %d", i+1)
		}
	}
	if float64(last[3]) != res.Agreement*float64(g.N()) {
		t.Errorf("agreement %v inconsistent with final share %d", res.Agreement, last[3])
	}
}

// TestConsensusSeedingGeometries pins the three placement geometries, one
// seed per variant.
func TestConsensusSeedingGeometries(t *testing.T) {
	g := mustBA(t, 400, 3, 31)

	// Distinct: K seeds, all distinct.
	dres := consRun(t, ConsensusConfig{Variants: 6, Graph: g, Seeding: SeedDistinct, Rule: RuleMajority},
		liveOptions{Seed: 7, Shards: 2})
	if len(dres.Seeds) != 6 {
		t.Fatalf("distinct seeding placed %d seeds, want 6", len(dres.Seeds))
	}
	seen := map[int]bool{}
	for _, p := range dres.Seeds {
		if seen[p] {
			t.Errorf("distinct seeding repeated peer %d", p)
		}
		seen[p] = true
	}

	// Hub/leaf alternates: variants 1 and 3 take the two largest degrees,
	// variants 2 and 4 the two smallest.
	hres := consRun(t, ConsensusConfig{Variants: 4, Graph: g, Seeding: SeedHubLeaf, Rule: RuleMajority},
		liveOptions{Seed: 7, Shards: 2})
	hub := g.Hub()
	if hres.Seeds[0] != hub {
		t.Errorf("hub seeding placed variant 1 at %d (degree %d), want hub %d (degree %d)",
			hres.Seeds[0], g.Degree(hres.Seeds[0]), hub, g.Degree(hub))
	}
	degs := make([]int, g.N())
	for i := range degs {
		degs[i] = g.Degree(i)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	wantDeg := []int{degs[0], degs[g.N()-1], degs[1], degs[g.N()-2]}
	for v, p := range hres.Seeds {
		if g.Degree(p) != wantDeg[v] {
			t.Errorf("variant %d seed %d has degree %d, want %d", v+1, p, g.Degree(p), wantDeg[v])
		}
	}

	// Clustered: variant v sits at the start of its ring range, (v-1)*n/K.
	cres := consRun(t, ConsensusConfig{Variants: 4, Graph: g, Seeding: SeedClustered, Rule: RuleMajority},
		liveOptions{Seed: 7, Shards: 2})
	want := []int{0, 100, 200, 300}
	if fmt.Sprint(cres.Seeds) != fmt.Sprint(want) {
		t.Errorf("clustered seeds %v, want %v", cres.Seeds, want)
	}
}

// TestConsensusValidation pins the config error paths; each error names
// what it rejects.
func TestConsensusValidation(t *testing.T) {
	g := mustBA(t, 50, 2, 1)
	for _, tc := range []struct {
		cfg  ConsensusConfig
		want string
	}{
		{ConsensusConfig{Variants: 2}, "graph"},
		{ConsensusConfig{Variants: 0, Graph: g}, "variant count"},
		{ConsensusConfig{Variants: 256, Graph: g}, "variant count"},
		{ConsensusConfig{Variants: 2, Graph: g, Threshold: 1.5}, "threshold"},
		{ConsensusConfig{Variants: 2, Graph: g, Threshold: math.NaN()}, "threshold"},
		{ConsensusConfig{Variants: 2, Graph: g, Rule: RuleWeighted}, "profile"},
		{ConsensusConfig{Variants: 60, Graph: g}, "exceed"},
		{ConsensusConfig{Variants: 2, Graph: g, Seeding: ConsensusSeeding(9)}, "seeding"},
		{ConsensusConfig{Variants: 2, Graph: g, Rule: MergeRule(9)}, "merge rule"},
	} {
		if _, err := runConsensus(tc.cfg, liveOptions{}, roundClock); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one naming %q", tc.cfg, err, tc.want)
		}
	}
}

// TestConsensusSpec pins the run.Spec plumbing: repro-level Run executes the
// config under DomainConsensus, the decided-peer trajectory rides the
// report, and worker counts stay bit-identical through the unified runner.
func TestConsensusSpec(t *testing.T) {
	g := mustBA(t, 1000, 2, 19)
	cfg := ConsensusConfig{Variants: 3, Graph: g, Seeding: SeedDistinct, Rule: RuleMajority, MaxRounds: 120}
	rep1, err := run.Run(cfg, run.WithSeed(8), run.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := run.Run(cfg, run.WithSeed(8), run.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Protocol != "consensus" {
		t.Errorf("protocol %q, want consensus", rep1.Protocol)
	}
	if fmt.Sprint(rep1.Trajectory) != fmt.Sprint(rep4.Trajectory) || rep1.Messages != rep4.Messages {
		t.Errorf("worker counts diverged: %v/%d vs %v/%d",
			rep1.Trajectory, rep1.Messages, rep4.Trajectory, rep4.Messages)
	}
	det, ok := rep1.Detail.(ConsensusResult)
	if !ok {
		t.Fatalf("Detail is %T, want ConsensusResult", rep1.Detail)
	}
	if det.Rounds != rep1.Rounds || len(rep1.Sent) != rep1.Rounds {
		t.Errorf("report shape mismatch: rounds %d/%d, sent len %d", det.Rounds, rep1.Rounds, len(rep1.Sent))
	}
}
