package sim

import (
	"fmt"
	"sort"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// runFigure1 reproduces Figure 1: the fraction of the centralized optimum m
// = n that the dating service arranges per round, as n nodes generate n
// requests of each type (unit bandwidths). The uniform column averages over
// many rounds; the DHT columns generate a population of overlays and report
// the worst and best per-overlay averages (the worst with its rounds' std),
// the paper's methodology ("we took only one DHT out of 200 generated — the
// one that showed the worst average").
//
// Each (n, overlay) cell — and each uniform row — is one harness job with
// its own Service, running seeded rounds from a seed derived from (seed, n
// index, overlay index), fanned across workers goroutines. The result is
// byte-identical for every worker count.
func runFigure1(scale Scale, seed uint64, workers int, _ *obs.Observer) (*stats.Table, error) {
	ns, roundsFor, dhtCount := figure1Sizes(scale)
	perN := dhtCount + 1 // slot 0 of each n is the uniform row, then one slot per overlay
	perDHTFor := func(n int) int {
		perDHT := roundsFor(n) / dhtCount
		if perDHT < 20 {
			perDHT = 20
		}
		return perDHT
	}

	// Job costs are wildly skewed (a uniform-row job runs ~dhtCount times
	// the rounds of one overlay job, and n spans four orders of magnitude),
	// so schedule the largest jobs first: workers steal in list order, and
	// a big job started last would otherwise bound the sweep's wall clock.
	// Scheduling only reorders the stealing — every job writes its own slot
	// and aggregation below reads slots in fixed order, so the table stays
	// byte-identical.
	type job struct{ ni, k, cost int }
	jobs := make([]job, 0, len(ns)*perN)
	for ni, n := range ns {
		jobs = append(jobs, job{ni, 0, roundsFor(n) * n})
		for k := 1; k < perN; k++ {
			jobs = append(jobs, job{ni, k, perDHTFor(n) * n})
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].cost > jobs[j].cost })

	accs := make([]stats.Accumulator, len(ns)*perN)
	err := forEach(len(jobs), workers, func(j int, b *par.Budget) error {
		ni, k := jobs[j].ni, jobs[j].k
		slot := ni*perN + k
		n := ns[ni]
		profile := bandwidth.Homogeneous(n, 1)

		if k == 0 {
			// Uniform selection.
			uniSel, err := core.NewUniformSelector(n)
			if err != nil {
				return err
			}
			svc, err := core.NewService(profile, uniSel)
			if err != nil {
				return err
			}
			accs[slot], err = fractions(svc, roundsFor(n), n, rng.Derive(seed, domainFigure1Uniform, uint64(ni)), b)
			return err
		}

		// DHT-interval selection, one overlay of the population. Per-overlay
		// round budgets shrink so total work stays proportional.
		d := uint64(k - 1)
		ring, err := overlay.NewRing(n, rng.New(rng.Derive(seed, domainFigure1Ring, uint64(ni), d)))
		if err != nil {
			return err
		}
		ringSel, err := core.NewRingSelector(ring)
		if err != nil {
			return err
		}
		dsvc, err := core.NewService(profile, ringSel)
		if err != nil {
			return err
		}
		accs[slot], err = fractions(dsvc, perDHTFor(n), n, rng.Derive(seed, domainFigure1Rounds, uint64(ni), d), b)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Aggregate in job order: the worst/best scan visits overlays in overlay
	// index order, exactly as the serial loop did.
	t := stats.NewTable(
		"Figure 1 — fraction of dates arranged by the dating service (m = n)",
		"n", "uniform", "dht-worst", "dht-best",
	)
	for ni, n := range ns {
		var worst stats.Accumulator
		worstMean, bestMean := 2.0, -1.0
		for d := 0; d < dhtCount; d++ {
			acc := accs[ni*perN+1+d]
			if acc.Mean() < worstMean {
				worstMean = acc.Mean()
				worst = acc
			}
			bestMean = max(bestMean, acc.Mean())
		}
		t.Add(stats.Int(n), meanStd(accs[ni*perN], 4), meanStd(worst, 4), stats.Num("%.4f", bestMean))
	}
	return t, nil
}

// runFigure2 reproduces Figure 2: for each network size, run every algorithm
// repeatedly from a fresh source and report mean and standard deviation of
// the number of rounds until all nodes are informed, one column per
// algorithm in the paper's display order.
//
// Every single repetition is one harness job — one spreading run through
// run.Run, seeded from (seed, n index, algorithm index, repetition index) —
// so the sweep saturates workers goroutines even for a single (n, algorithm)
// cell. The result is byte-identical for every worker count.
func runFigure2(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	ns, repsFor := figure2Sizes(scale)
	algos := gossip.Algorithms()
	type coord struct{ ni, ai, rep, slot int }
	var coords []coord
	slot := 0
	for ni := range ns {
		reps := repsFor(ns[ni])
		for ai := range algos {
			for rep := 0; rep < reps; rep++ {
				coords = append(coords, coord{ni, ai, rep, slot})
				slot++
			}
		}
	}
	// Largest networks first, as in runFigure1: a job's cost is dominated
	// by n, and each job writes its precomputed slot.
	sort.SliceStable(coords, func(i, j int) bool { return ns[coords[i].ni] > ns[coords[j].ni] })
	rounds := make([]float64, len(coords))
	err := forEach(len(coords), workers, func(j int, b *par.Budget) error {
		c := coords[j]
		n := ns[c.ni]
		r, err := runJob(gossip.Config{Algorithm: algos[c.ai], N: n, Source: 0},
			rng.Derive(seed, domainFigure2, uint64(c.ni), uint64(c.ai), uint64(c.rep)), b, o)
		if err != nil {
			return err
		}
		if !r.Completed {
			return fmt.Errorf("sim: %v at n=%d did not complete", algos[c.ai], n)
		}
		rounds[c.slot] = float64(r.Rounds)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate in coordinate order; coords list cells contiguously.
	headers := []string{"n"}
	for _, a := range algos {
		headers = append(headers, a.String())
	}
	t := stats.NewTable("Figure 2 — rounds to spread a single rumor (mean ± std)", headers...)
	idx := 0
	for _, n := range ns {
		reps := repsFor(n)
		row := []stats.Cell{stats.Int(n)}
		for range algos {
			var acc stats.Accumulator
			for rep := 0; rep < reps; rep++ {
				acc.Add(rounds[idx])
				idx++
			}
			row = append(row, meanStd(acc, 2))
		}
		t.Add(row...)
	}
	return t, nil
}
