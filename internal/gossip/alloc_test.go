package gossip

import (
	"runtime"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
)

// TestDatingSpreadAllocBound pins what a whole dating spread allocates, per
// peer and round: the run's state, the Service's scratch on its first round
// and whatever append still grows while request counts drift — and nothing
// per round that is proportional to n. Before rounds stopped building
// per-node counters and a fresh date slice each, this spread allocated 51 B
// per peer-round; with chunks grown by append and per-worker date buffers
// merged into the Service's, 15.8; with reserved chunks and dates written in
// place, 5.9.
func TestDatingSpreadAllocBound(t *testing.T) {
	const n, bound = 20_000, 8.0
	cfg := Config{Algorithm: Dating, Profile: bandwidth.Homogeneous(n, 2)}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := spread(cfg, rng.New(3), nil, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("spread did not complete in %d rounds", res.Rounds)
	}
	perPeerRound := float64(after.TotalAlloc-before.TotalAlloc) / float64(n*res.Rounds)
	t.Logf("%d rounds, %.1f B per peer-round", res.Rounds, perPeerRound)
	if perPeerRound > bound {
		t.Errorf("dating spread allocated %.1f B per peer-round, bound %.0f", perPeerRound, bound)
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
// with the view made of pool pages, 0.98.
func TestLiveSpreadAllocBound(t *testing.T) {
	const n, bound = 20_000, 1.2
	cfg := LiveConfig{Profile: bandwidth.Homogeneous(n, 1)}
	var res LiveResult
	var err error
	bytes := allocated(func() { res, err = RunLive(cfg, LiveOptions{Seed: 3, Shards: 2}) })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("spread did not complete in %d dating rounds", res.Rounds)
	}
	perMessage := float64(bytes) / float64(res.Traffic.Sent)
	t.Logf("%d dating rounds, %d messages, %.2f B per message", res.Rounds, res.Traffic.Sent, perMessage)
	if perMessage > bound {
		t.Errorf("live spread allocated %.2f B per message, bound %.1f", perMessage, bound)
	}
}

// TestAsyncSpreadAllocBound is the same bound for a whole asynchronous
// spread on a bimodal profile, whose fast peers fire eight times as often:
// the firing clocks, the pages and the view. Before Send filed messages
// under their owner it allocated 19.3 B per message; after it, 15.1; with
// pages and the view holding 20-byte records instead of 40-byte Messages,
// 9.2; with the view made of pool pages instead of a buffer grown on its
// own, 7.1; with one generator per shard instead of one per peer, 6.25.
func TestAsyncSpreadAllocBound(t *testing.T) {
	const n, bound = 20_000, 8.0
	p, err := bandwidth.Bimodal(n, n/10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var res AsyncResult
	bytes := allocated(func() { res, err = RunAsync(AsyncConfig{Profile: p}, LiveOptions{Seed: 3, Shards: 2}) })
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
// view made of pool pages, 8.3–8.4.
func TestTopologySpreadAllocBound(t *testing.T) {
	const n, bound = 20_000, 9.0
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := TopologyConfig{Graph: mustBA(t, n, 3, seed), Alpha: 0.25}
		var res TopologyResult
		var err error
		bytes := allocated(func() { res, err = RunTopology(cfg, LiveOptions{Seed: seed, Shards: 2}) })
		if err != nil {
			t.Fatal(err)
		}
		perMessage := float64(bytes) / float64(res.Traffic.Sent)
		t.Logf("seed %d: %d rounds, %d messages, %.2f B per message", seed, res.Rounds, res.Traffic.Sent, perMessage)
		if perMessage > bound {
			t.Errorf("seed %d: topology spread allocated %.2f B per message, bound %.0f", seed, perMessage, bound)
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
