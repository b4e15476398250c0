package gossip

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/run"
)

// HierarchicalResult reports the Theorem 10 experiment: on a network with
// m = Omega(n log n) and a well-provisioned source, nodes of at least
// average bandwidth are informed much earlier than the weak tail —
// O(log n / log(m/n)) rounds versus O(log n).
type HierarchicalResult struct {
	RichRounds  int  // first round after which every rich node is informed
	TotalRounds int  // round at which everyone (rich and poor) is informed
	Completed   bool // whether the run completed within the cap
}

// RunHierarchical spreads a rumor with the dating service on a bimodal
// profile: `rich` nodes with bandwidth richB (the "at least average" class)
// and the rest with bandwidth 1. The source is node 0, which is rich, as
// Theorem 10 requires (source bandwidth Omega(m/n)). The spread is one
// run.Run of the rumor spec from the root seed; opts add the run's other
// axes (a shared budget, an observer).
func RunHierarchical(n, rich, richB int, seed uint64, opts ...run.Option) (HierarchicalResult, error) {
	if rich < 1 || rich > n {
		return HierarchicalResult{}, fmt.Errorf("gossip: rich count %d out of [1,%d]", rich, n)
	}
	profile, err := bandwidth.Bimodal(n, rich, richB, 1)
	if err != nil {
		return HierarchicalResult{}, err
	}
	var hres HierarchicalResult
	cfg := Config{
		Algorithm: Dating,
		Profile:   profile,
		Source:    0,
		OnRound: func(round int, informed []bool) {
			if hres.RichRounds == 0 {
				for i := 0; i < rich; i++ {
					if !informed[i] {
						return
					}
				}
				hres.RichRounds = round
			}
		},
	}
	rep, err := run.Run(cfg, append([]run.Option{run.WithSeed(seed)}, opts...)...)
	if err != nil {
		return HierarchicalResult{}, err
	}
	hres.TotalRounds = rep.Rounds
	hres.Completed = rep.Completed
	if hres.RichRounds == 0 {
		hres.RichRounds = rep.Rounds
	}
	return hres, nil
}
