package gossip

import (
	"runtime"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
)

// raceDetector is set under -race (race_test.go). The detector's
// instrumentation makes slices.Grow allocate its growth twice over, so the
// dating bound, which covers the engine's reserved chunk rows, has a second
// figure there; the message runtimes' bounds read the same either way.
var raceDetector bool

// TestDatingSpreadAllocBound pins what a whole dating spread allocates, per
// peer and round: the run's state, the Service's scratch on its first round
// and whatever append still grows while request counts drift — and nothing
// per round that is proportional to n. Before rounds stopped building
// per-node counters and a fresh date slice each, this spread allocated 51 B
// per peer-round; with chunks grown by append and per-worker date buffers
// merged into the Service's, 15.8; with reserved chunks and dates written in
// place, 5.9 (8.0 under -race); with the owners counting on the offsets,
// 8-byte dates and int32 loads, 4.4 (6.5); with chunk rows and the date
// buffer reserved to exch.Margin instead of a quarter, and 16-bit loads,
// 3.8 (5.5).
func TestDatingSpreadAllocBound(t *testing.T) {
	bound := 4.4
	if raceDetector {
		bound = 6.3
	}
	checkSpreadAlloc(t, Config{Algorithm: Dating, Profile: bandwidth.Homogeneous(20_000, 2)}, bound)
}

// TestFairPullSpreadAllocBound is the same bound for a fair-pull spread,
// whose round keeps a reservoir of one requester per node. While each
// round allocated that reservoir afresh as two []int of n, the spread
// allocated 17.8 B per peer-round; kept on the run's state as int32 and
// reset in place, 1.8.
func TestFairPullSpreadAllocBound(t *testing.T) {
	checkSpreadAlloc(t, Config{Algorithm: FairPull, N: 20_000}, 2.5)
}

// TestFairPushPullSpreadAllocBound is the same bound for fair push-pull,
// whose pull direction keeps the same reservoir: 19.2 B per peer-round
// while each round allocated it afresh, 3.3 kept on the state (it runs 14
// rounds to fair pull's 23 on about the same total).
func TestFairPushPullSpreadAllocBound(t *testing.T) {
	checkSpreadAlloc(t, Config{Algorithm: FairPushPull, N: 20_000}, 4.0)
}

// checkSpreadAlloc fails if the spread of cfg from seed 3 does not
// complete or allocates more than bound bytes per peer and round.
func checkSpreadAlloc(t *testing.T, cfg Config, bound float64) {
	t.Helper()
	var res Result
	var err error
	bytes := allocated(func() { res, err = spread(cfg, rng.New(3), nil, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("spread did not complete in %d rounds", res.Rounds)
	}
	perPeerRound := float64(bytes) / float64(cfg.n()*res.Rounds)
	t.Logf("%v: %d rounds, %.1f B per peer-round", cfg.Algorithm, res.Rounds, perPeerRound)
	if perPeerRound > bound {
		t.Errorf("%v spread allocated %.1f B per peer-round, bound %.1f", cfg.Algorithm, perPeerRound, bound)
	}
}

// TestLiveSpreadAllocBound pins what a whole live spread on the sharded
// runtime allocates per message routed: the peers' state, the pages and the
// delivered view the traffic peaks at, and nothing per message or per
// rendezvous. With an outbox in front of flat ring slots and the handshake
// step's two lists on the heap this spread allocated 8.7 B per message;
// with pooled pages 2.1, a chunk matrix and an index column beside the pages
// included; with messages filed under their owner by Send, 1.6; with pages
// and the view holding 20-byte records instead of 40-byte Messages, 1.0;
// with the view made of pool pages, 0.98; with one generator per shard
// instead of one per peer, 0.69; with deliver counting on the view's
// offsets instead of count arrays of its own, 0.66; with 16-byte records,
// 0.53–0.54.
func TestLiveSpreadAllocBound(t *testing.T) {
	const n, bound = 20_000, 0.62
	cfg := LiveConfig{Profile: bandwidth.Homogeneous(n, 1)}
	var res LiveResult
	var err error
	bytes := allocated(func() { res, err = runLive(cfg, liveOptions{Seed: 3, Shards: 2}, roundClock) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("spread did not complete in %d dating rounds", res.Rounds)
	}
	perMessage := float64(bytes) / float64(res.Traffic.Sent)
	t.Logf("%d dating rounds, %d messages, %.2f B per message", res.Rounds, res.Traffic.Sent, perMessage)
	if perMessage > bound {
		t.Errorf("live spread allocated %.2f B per message, bound %.2f", perMessage, bound)
	}
}

// TestAsyncSpreadAllocBound is the same bound for a whole asynchronous
// spread on a bimodal profile, whose fast peers fire eight times as often:
// the firing clocks, the pages and the view. Before Send filed messages
// under their owner it allocated 19.3 B per message; after it, 15.1; with
// pages and the view holding 20-byte records instead of 40-byte Messages,
// 9.2; with the view made of pool pages instead of a buffer grown on its
// own, 7.1; with one generator per shard instead of one per peer, 6.25;
// with deliver counting on the view's offsets, 6.06; with 16-byte records,
// 5.00.
func TestAsyncSpreadAllocBound(t *testing.T) {
	const n, bound = 20_000, 5.8
	p, err := bandwidth.Bimodal(n, n/10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res AsyncResult
	bytes := allocated(func() { res, err = runAsync(AsyncConfig{Profile: p}, liveOptions{Seed: 3, Shards: 2}) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("spread did not complete in %d buckets", res.Rounds)
	}
	perMessage := float64(bytes) / float64(res.Traffic.Sent)
	t.Logf("%d buckets, %d messages, %.2f B per message", res.Rounds, res.Traffic.Sent, perMessage)
	if perMessage > bound {
		t.Errorf("async spread allocated %.2f B per message, bound %.1f", perMessage, bound)
	}
}

// TestTopologySpreadAllocBound is the same bound for a rumor spread on a
// Barabási–Albert graph, whose traffic ramps up by about 1.6x a round: the
// peers' state and the pages, which the delivered view shares as the ramp
// grows. While the view was a buffer of its own that took a quarter of
// headroom on every growth it was reallocated on each ramp-up round and the
// spread allocated 20.8–22.8 B per message over these seeds; grown for two
// more rounds at the observed rate, 14.1–16.0; with pages and the view
// holding 20-byte records instead of 40-byte Messages, 9.6–10.6; with the
// view made of pool pages, 8.3–8.4; with one generator per shard instead of
// one per peer, 4.95–5.01; with deliver counting on the view's offsets
// instead of count arrays of its own, 4.52–4.61; with 16-byte records,
// 3.69–3.78.
func TestTopologySpreadAllocBound(t *testing.T) {
	const n, bound = 20_000, 4.3
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := TopologyConfig{Graph: mustBA(t, n, 3, seed), Alpha: 0.25}
		var res TopologyResult
		var err error
		bytes := allocated(func() { res, err = runTopology(cfg, liveOptions{Seed: seed, Shards: 2}, roundClock) })
		if err != nil {
			t.Fatal(err)
		}
		perMessage := float64(bytes) / float64(res.Traffic.Sent)
		t.Logf("seed %d: %d rounds, %d messages, %.2f B per message", seed, res.Rounds, res.Traffic.Sent, perMessage)
		if perMessage > bound {
			t.Errorf("seed %d: topology spread allocated %.2f B per message, bound %.1f", seed, perMessage, bound)
		}
	}
}

// allocated returns the bytes spread allocates.
func allocated(spread func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spread()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
