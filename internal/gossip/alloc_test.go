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
// per peer-round; it allocates 16.
func TestDatingSpreadAllocBound(t *testing.T) {
	const n, bound = 20_000, 22.0
	cfg := Config{Algorithm: Dating, Profile: bandwidth.Homogeneous(n, 2)}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg, rng.New(3))
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
// step's two lists on the heap this spread allocated 8.7 B per message; it
// allocates 2.1.
func TestLiveSpreadAllocBound(t *testing.T) {
	const n, bound = 20_000, 3.5
	cfg := LiveConfig{Profile: bandwidth.Homogeneous(n, 1)}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunLive(cfg, LiveOptions{Seed: 3, Engine: LiveSharded, Shards: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("spread did not complete in %d dating rounds", res.DatingRounds)
	}
	perMessage := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Traffic.Sent)
	t.Logf("%d dating rounds, %d messages, %.1f B per message", res.DatingRounds, res.Traffic.Sent, perMessage)
	if perMessage > bound {
		t.Errorf("live spread allocated %.1f B per message, bound %.1f", perMessage, bound)
	}
}
