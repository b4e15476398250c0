package gossip

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/run"
)

func mustBA(t *testing.T, n, m int, seed uint64) *graph.CSR {
	t.Helper()
	g, err := graph.BarabasiAlbert(n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func topoTrajectory(t *testing.T, cfg TopologyConfig, o LiveOptions) TopologyResult {
	t.Helper()
	res, err := RunTopology(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTopologyShardIdentity pins the headline determinism claim: the shard
// count of the sharded engine is a pure speed knob — trajectories, message
// counts and the spreader/stifler split are bit-identical at every count.
func TestTopologyShardIdentity(t *testing.T) {
	g := mustBA(t, 3000, 3, 7)
	cfg := TopologyConfig{Graph: g, Source: 0, Alpha: 0.4, Delta: 0.02}
	base := topoTrajectory(t, cfg, LiveOptions{Seed: 42, Shards: 1})
	if base.Rounds == 0 || base.History[0] == 0 {
		t.Fatalf("degenerate base run: %+v", base)
	}
	for _, shards := range []int{2, 4, 8} {
		res := topoTrajectory(t, cfg, LiveOptions{Seed: 42, Shards: shards})
		if fmt.Sprint(res) != fmt.Sprint(base) {
			t.Errorf("shards=%d diverged:\n got %+v\nwant %+v", shards, res, base)
		}
	}
}

// TestTopologyEngineIdentity pins that the goroutine engine, the test
// oracle, reproduces the sharded runtime bit for bit: both seed every
// peer-step's stream from (round, peer), and the oracle steps every peer whatever its
// step answers, so a peer that wrongly reports "asleep" diverges.
func TestTopologyEngineIdentity(t *testing.T) {
	g := mustBA(t, 800, 2, 3)
	cfg := TopologyConfig{Graph: g, Source: 5, Alpha: 0.3, Delta: 0.01}
	sharded := topoTrajectory(t, cfg, LiveOptions{Seed: 9, Shards: 3})
	oracle, err := runTopology(cfg, LiveOptions{Seed: 9}, oracleClock)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(oracle) != fmt.Sprint(sharded) {
		t.Errorf("goroutine engine diverged:\n got %+v\nwant %+v", oracle, sharded)
	}
}

// TestTopologySwitchEngineIdentity is TestTopologyEngineIdentity across the
// round runtime's density switch: on a graph of 3000 peers the spread's
// first rounds and its tail are light enough for the sparse path and its
// peak of more than n/4 messages a round is dense in every owner, and the
// goroutine oracle, which has no switch and steps everyone, must agree bit
// for bit at shards 1, 2 and 4. The live track's sparse_owners gauge shows
// that both paths ran: no owner sparse on some round (the first, when every
// peer starts awake, and the peak), every owner on another, and on the last.
func TestTopologySwitchEngineIdentity(t *testing.T) {
	const n = 3000
	cfg := TopologyConfig{Graph: mustBA(t, n, 2, 5), Source: 7, Alpha: 0.3, Delta: 0.01}
	oracle, err := runTopology(cfg, LiveOptions{Seed: 11}, oracleClock)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		o := obs.NewObserver()
		res := topoTrajectory(t, cfg, LiveOptions{Seed: 11, Shards: shards, Obs: o})
		if fmt.Sprint(res) != fmt.Sprint(oracle) {
			t.Fatalf("shards=%d: goroutine engine diverged:\n got %+v\nwant %+v", shards, oracle, res)
		}
		var sparse obs.GaugeMetric
		for _, g := range o.Metrics().Gauges {
			if g.Track == "live" && g.Name == "sparse_owners" {
				sparse = g
			}
		}
		if peak := slices.Max(res.SentHistory); peak < n/4 || sparse.Min != 0 || sparse.Max != int64(shards) || sparse.Last != int64(shards) {
			t.Errorf("shards=%d: peak of %d messages a round, sparse_owners gauge %+v: the run did not cross the switch both ways",
				shards, peak, sparse)
		}
	}
}

// TestTopologyShardLocalState drives the sharded engine at several shard
// counts under -race: the shard-owned state blocks mean no two workers ever
// write the same slice, and the race detector pins it.
func TestTopologyShardLocalState(t *testing.T) {
	g := mustBA(t, 1200, 3, 11)
	for _, shards := range []int{1, 4} {
		res := topoTrajectory(t, TopologyConfig{Graph: g, Source: 0, Alpha: 0.2},
			LiveOptions{Seed: 4, Shards: shards})
		if !res.Completed {
			t.Errorf("shards=%d: run did not complete", shards)
		}
	}
}

// TestTopologyCompleteGraphMatchesPush pins the bridge to the paper's
// any-to-any setting: on the complete graph with alpha = delta = 0 the
// protocol is plain push, and its final spread fraction equals the round-
// abstract push baseline's (both 1: nothing ever stifles).
func TestTopologyCompleteGraphMatchesPush(t *testing.T) {
	n := 300
	g, err := graph.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	res := topoTrajectory(t, TopologyConfig{Graph: g, Source: 0},
		LiveOptions{Seed: 21, Shards: 2})
	if !res.Completed {
		t.Fatal("complete-graph run did not complete")
	}
	push, err := spread(Config{Algorithm: Push, N: n, Source: 0}, rng.New(21), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pushFrac := float64(push.History[len(push.History)-1]) / float64(n)
	if res.FinalSpread != pushFrac {
		t.Errorf("complete-graph final spread %v, push baseline %v", res.FinalSpread, pushFrac)
	}
	if res.FinalSpread != 1 {
		t.Errorf("alpha=0 complete-graph spread %v, want 1", res.FinalSpread)
	}
}

// TestTopologyStiflingLimitsSpread pins the epidemiology: with alpha > 0 the
// rumor dies out before reaching everyone on a scale-free graph, and the
// stifler count is monotone non-decreasing.
func TestTopologyStiflingLimitsSpread(t *testing.T) {
	g := mustBA(t, 5000, 3, 13)
	res := topoTrajectory(t, TopologyConfig{Graph: g, Source: 0, Alpha: 0.9, Delta: 0.1},
		LiveOptions{Seed: 17, Shards: 4})
	if !res.Completed {
		t.Fatal("stifled run did not terminate")
	}
	if res.FinalSpread >= 1 {
		t.Errorf("alpha=0.9 spread %v, want < 1", res.FinalSpread)
	}
	if res.FinalSpread <= 0 {
		t.Error("rumor never spread at all")
	}
	for i := 1; i < len(res.StiflerHist); i++ {
		if res.StiflerHist[i] < res.StiflerHist[i-1] {
			t.Fatalf("stifler count decreased at round %d: %v", i+1, res.StiflerHist)
		}
	}
	last := len(res.SpreaderHist) - 1
	if res.SpreaderHist[last] != 0 {
		t.Errorf("terminated run still has %d spreaders", res.SpreaderHist[last])
	}
	if res.History[last] != res.StiflerHist[last] {
		t.Errorf("informed %d != stiflers %d at termination", res.History[last], res.StiflerHist[last])
	}
}

// TestTopologyValidation pins the config error paths; each error names
// what it rejects.
func TestTopologyValidation(t *testing.T) {
	g := mustBA(t, 50, 2, 1)
	for _, tc := range []struct {
		cfg  TopologyConfig
		want string
	}{
		{TopologyConfig{}, "graph"},
		{TopologyConfig{Graph: g, Source: 50}, "source"},
		{TopologyConfig{Graph: g, Alpha: 1.5}, "alpha"},
		{TopologyConfig{Graph: g, Alpha: math.NaN()}, "alpha"},
		{TopologyConfig{Graph: g, Lambda: math.NaN()}, "lambda"},
		{TopologyConfig{Graph: g, Delta: -0.1}, "delta"},
		{TopologyConfig{Graph: g, Delta: math.NaN()}, "delta"},
	} {
		if _, err := RunTopology(tc.cfg, LiveOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one naming %q", tc.cfg, err, tc.want)
		}
	}
}

// TestTopologySpec pins the run.Spec plumbing: repro-level Run executes the
// config, the trajectory rides the report, and worker counts stay
// bit-identical through the unified runner.
func TestTopologySpec(t *testing.T) {
	g := mustBA(t, 1000, 2, 19)
	cfg := TopologyConfig{Graph: g, Source: 0, Alpha: 0.5, Delta: 0.05}
	rep1, err := run.Run(cfg, run.WithSeed(8), run.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep4, err := run.Run(cfg, run.WithSeed(8), run.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Protocol != "topology" {
		t.Errorf("protocol %q, want topology", rep1.Protocol)
	}
	if fmt.Sprint(rep1.Trajectory) != fmt.Sprint(rep4.Trajectory) || rep1.Messages != rep4.Messages {
		t.Errorf("worker counts diverged: %v/%d vs %v/%d",
			rep1.Trajectory, rep1.Messages, rep4.Trajectory, rep4.Messages)
	}
	det, ok := rep1.Detail.(TopologyResult)
	if !ok {
		t.Fatalf("Detail is %T, want TopologyResult", rep1.Detail)
	}
	if det.Rounds != rep1.Rounds || len(rep1.Sent) != rep1.Rounds {
		t.Errorf("report shape mismatch: rounds %d/%d, sent len %d", det.Rounds, rep1.Rounds, len(rep1.Sent))
	}
}
