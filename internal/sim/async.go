package sim

// This file is the sync-vs-async experiment: the same rumor,
// spread by round-synchronous protocols and by the clockless push&pull
// runtime, on homogeneous and heterogeneous profiles. Time units align by
// construction — a unit-rate peer fires once per expected synchronous
// round — so the two spread curves are directly comparable.

import (
	"fmt"
	"strconv"

	"repro/internal/bandwidth"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/stats"
)

// milestone returns the earliest time at which the trajectory reaches frac
// of n, or the full run time if it never does. One trajectory step is one
// time unit: a round for the synchronous protocols, a calendar bucket of the
// default width for the async runtime.
func milestone(traj []int, n int, frac float64) float64 {
	goal := int(frac * float64(n))
	for i, v := range traj {
		if v >= goal {
			return float64(i + 1)
		}
	}
	return float64(len(traj))
}

// runAsyncCompare tables the times to inform half and 90% of the peers, then
// the heterogeneous-rate regime, where one Zipf profile drives both the
// dating spreader's per-round fan-out and the async runtime's firing rates.
// Steps are rounds (sync) or calendar buckets (async). Quick scale compares
// at n up to 10^4 with the Zipf pair at n=2000; paper scale at n up to 10^5
// with the Zipf pair at n=20000. Each run is one harness job from the root
// seed.
func runAsyncCompare(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	ns, nHet := []int{1_000, 10_000}, 2_000
	if scale == ScalePaper {
		ns, nHet = []int{10_000, 100_000}, 20_000
	}
	prof, err := bandwidth.Zipf(nHet, 1.2, 8, 2.0, rng.New(rng.Derive(seed, domainAsyncZipf)))
	if err != nil {
		return nil, err
	}
	type comparison struct {
		n             int
		profile, mode string
		spec          run.Spec
	}
	var cs []comparison
	for _, n := range ns {
		cs = append(cs,
			comparison{n, "unit", "sync-push-pull", gossip.Config{Algorithm: gossip.PushPull, N: n}},
			comparison{n, "unit", "async", gossip.AsyncConfig{Profile: bandwidth.Homogeneous(n, 1)}})
	}
	cs = append(cs,
		comparison{nHet, "zipf", "sync-dating", gossip.Config{Algorithm: gossip.Dating, Profile: prof}},
		comparison{nHet, "zipf", "async", gossip.AsyncConfig{Profile: prof}})

	rows := make([][]stats.Cell, len(cs))
	err = forEach(len(cs), workers, func(j int, b *par.Budget) error {
		c := cs[j]
		rep, err := runJob(c.spec, seed, b, o)
		if err != nil {
			return fmt.Errorf("sim: async compare %s/%s n=%d: %w", c.profile, c.mode, c.n, err)
		}
		rows[j] = []stats.Cell{stats.Int(c.n), stats.Label(c.profile), stats.Label(c.mode), stats.Int(rep.Rounds),
			stats.Num("%.1f", float64(rep.Rounds)), stats.Num("%.1f", milestone(rep.Trajectory, c.n, 0.5)),
			stats.Num("%.1f", milestone(rep.Trajectory, c.n, 0.9)), stats.Label(strconv.FormatBool(rep.Completed)),
			stats.Int(rep.Messages)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return table("Sync vs async spreading — rounds vs exponential peer clocks (time unit = expected round)",
		[]string{"n", "profile", "mode", "steps", "time", "t50", "t90", "completed", "messages"}, rows), nil
}
