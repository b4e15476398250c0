package sim

// This file is the sync-vs-async experiment: the same rumor,
// spread by round-synchronous protocols and by the clockless push&pull
// runtime, on homogeneous and heterogeneous profiles. Time units align by
// construction — a unit-rate peer fires once per expected synchronous
// round — so the two spread curves are directly comparable.

import (
	"fmt"
	"runtime"

	"repro/internal/bandwidth"
	"repro/internal/gossip"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/stats"
)

// asyncZipfDomain derives the stream generating the heterogeneous profile
// of the comparison (see the allocation map in internal/rng/domains.go).
const asyncZipfDomain uint64 = 0x71

// AsyncCompareRow is one (population, protocol) spread curve summary.
type AsyncCompareRow struct {
	N         int     `json:"n"`
	Profile   string  `json:"profile"`
	Mode      string  `json:"mode"`
	Steps     int     `json:"steps"` // rounds (sync) or calendar buckets (async)
	Time      float64 `json:"time"`  // clock time to completion; rounds == time for sync
	T50       float64 `json:"t50"`   // time to inform half the peers
	T90       float64 `json:"t90"`   // time to inform 90% of the peers
	Completed bool    `json:"completed"`
	Messages  int64   `json:"messages"`
}

// AsyncCompareResult is the async experiment of the registry: spread-curve
// milestones for round-synchronous push&pull versus the asynchronous
// clockless runtime, then the heterogeneous-rate regime — a Zipf bandwidth
// profile driving both the dating spreader's per-round fan-out and the
// async runtime's firing rates.
type AsyncCompareResult struct {
	Rows []AsyncCompareRow `json:"rows"`
}

// Table renders the comparison in the repository's table shape.
func (r AsyncCompareResult) Table() *stats.Table {
	t := stats.NewTable(
		"Sync vs async spreading — rounds vs exponential peer clocks (time unit = expected round)",
		"n", "profile", "mode", "steps", "time", "t50", "t90", "completed", "messages",
	)
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprint(row.N),
			row.Profile,
			row.Mode,
			fmt.Sprint(row.Steps),
			fmt.Sprintf("%.1f", row.Time),
			fmt.Sprintf("%.1f", row.T50),
			fmt.Sprintf("%.1f", row.T90),
			fmt.Sprint(row.Completed),
			fmt.Sprint(row.Messages),
		)
	}
	return t
}

// milestone returns the earliest time (in units of timePerStep) at which the
// trajectory reaches frac of n, or the full run time if it never does.
func milestone(traj []int, n int, frac, timePerStep float64) float64 {
	goal := int(frac * float64(n))
	for i, v := range traj {
		if v >= goal {
			return float64(i+1) * timePerStep
		}
	}
	return float64(len(traj)) * timePerStep
}

// compareRow runs one spec through the unified runner and summarizes its
// spread curve. timePerStep converts trajectory indices to clock time: 1
// for both the synchronous protocols (one round = one time unit) and the
// async runtime at the default bucket width.
func compareRow(n int, profile, mode string, spec run.Spec, workers int, seed uint64) (AsyncCompareRow, error) {
	rep, err := run.Run(spec, run.WithSeed(seed), run.WithWorkers(workers))
	if err != nil {
		return AsyncCompareRow{}, fmt.Errorf("sim: async compare %s/%s n=%d: %w", profile, mode, n, err)
	}
	const timePerStep = 1.0
	return AsyncCompareRow{
		N:         n,
		Profile:   profile,
		Mode:      mode,
		Steps:     rep.Rounds,
		Time:      float64(rep.Rounds) * timePerStep,
		T50:       milestone(rep.Trajectory, n, 0.5, timePerStep),
		T90:       milestone(rep.Trajectory, n, 0.9, timePerStep),
		Completed: rep.Completed,
		Messages:  rep.Messages,
	}, nil
}

// RunAsyncCompare is the registry entry point for the sync-vs-async
// experiment. Quick scale compares at n up to 10^4 with the heterogeneous
// regime at n=2000 (seconds); paper scale at n up to 10^5 with the
// heterogeneous regime at n=20000. The workers knob is a pure speed knob
// (the async runtime's shard count); every table is bit-identical for any
// value.
func RunAsyncCompare(scale Scale, seed uint64, workers int) (AsyncCompareResult, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	ns := []int{1_000, 10_000}
	nHet := 2_000
	if scale == ScalePaper {
		ns = []int{10_000, 100_000}
		nHet = 20_000
	}
	var res AsyncCompareResult
	for _, n := range ns {
		row, err := compareRow(n, "unit", "sync-push-pull",
			gossip.Config{Algorithm: gossip.PushPull, N: n}, workers, seed)
		if err != nil {
			return AsyncCompareResult{}, err
		}
		res.Rows = append(res.Rows, row)
		row, err = compareRow(n, "unit", "async",
			gossip.AsyncConfig{Profile: bandwidth.Homogeneous(n, 1)}, workers, seed)
		if err != nil {
			return AsyncCompareResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}

	// Heterogeneous-rate regime: one Zipf profile drives both sides — the
	// dating spreader's per-round bandwidths and the async runtime's firing
	// rates — so the table shows how each execution model spends the same
	// heterogeneity budget.
	prof, err := bandwidth.Zipf(nHet, 1.2, 8, 2.0, rng.New(rng.Derive(seed, asyncZipfDomain)))
	if err != nil {
		return AsyncCompareResult{}, err
	}
	row, err := compareRow(nHet, "zipf", "sync-dating",
		gossip.Config{Algorithm: gossip.Dating, Profile: prof}, workers, seed)
	if err != nil {
		return AsyncCompareResult{}, err
	}
	res.Rows = append(res.Rows, row)
	row, err = compareRow(nHet, "zipf", "async",
		gossip.AsyncConfig{Profile: prof}, workers, seed)
	if err != nil {
		return AsyncCompareResult{}, err
	}
	res.Rows = append(res.Rows, row)
	return res, nil
}
