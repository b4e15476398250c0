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
