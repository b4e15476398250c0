package sim

import (
	"fmt"
	"sort"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Figure1Row is one n-value of Figure 1: the fraction of the centralized
// optimum m = n that the dating service arranges per round, for the uniform
// selection distribution and for DHT-interval selection (worst and best
// overlay out of the generated population, as in the paper).
type Figure1Row struct {
	N           int
	UniformMean float64
	UniformStd  float64
	DHTWorst    float64 // lowest per-overlay average fraction
	DHTWorstStd float64 // stddev of the worst overlay's rounds
	DHTBest     float64 // highest per-overlay average fraction
}

// Figure1Result is the full reproduction of Figure 1.
type Figure1Result struct {
	Rows []Figure1Row
}

// Table renders the result in the paper's reporting shape.
func (r Figure1Result) Table() *stats.Table {
	t := stats.NewTable(
		"Figure 1 — fraction of dates arranged by the dating service (m = n)",
		"n", "uniform", "dht-worst", "dht-best",
	)
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprint(row.N),
			fmt.Sprintf("%.4f ± %.4f", row.UniformMean, row.UniformStd),
			fmt.Sprintf("%.4f ± %.4f", row.DHTWorst, row.DHTWorstStd),
			fmt.Sprintf("%.4f", row.DHTBest),
		)
	}
	return t
}

// RunFigure1Par reproduces Figure 1: n nodes generate n requests of each
// type (unit bandwidths); the uniform rows average over many rounds, and
// the DHT rows generate a population of overlays and report the worst and
// best per-overlay averages, the paper's methodology ("we took only one DHT
// out of 200 generated — the one that showed the worst average").
//
// Each (n, overlay) cell — and each uniform row — is one harness job with
// its own Service and a stream derived from (seed, n index, overlay index),
// fanned across workers goroutines. The result is byte-identical for every
// worker count.
func RunFigure1Par(scale Scale, seed uint64, workers int) (Figure1Result, error) {
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
	err := forEach(len(jobs), workers, func(j int, _ *par.Budget) error {
		ni, k := jobs[j].ni, jobs[j].k
		slot := ni*perN + k
		n := ns[ni]
		rounds := roundsFor(n)
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
			s := rng.New(rng.Derive(seed, domainFigure1Uniform, uint64(ni)))
			var uni stats.Accumulator
			for r := 0; r < rounds; r++ {
				uni.Add(svc.RunRound(s).Fraction(n))
			}
			accs[slot] = uni
			return nil
		}

		// DHT-interval selection, one overlay of the population. Per-overlay
		// round budgets shrink so total work stays proportional.
		perDHT := perDHTFor(n)
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
		ds := rng.New(rng.Derive(seed, domainFigure1Rounds, uint64(ni), d))
		var acc stats.Accumulator
		for r := 0; r < perDHT; r++ {
			acc.Add(dsvc.RunRound(ds).Fraction(n))
		}
		accs[slot] = acc
		return nil
	})
	if err != nil {
		return Figure1Result{}, err
	}

	// Aggregate in job order: the worst/best scan visits overlays in overlay
	// index order, exactly as the serial loop did.
	var res Figure1Result
	for ni, n := range ns {
		uni := accs[ni*perN]
		worst := stats.Accumulator{}
		var worstMean = 2.0
		var bestMean = -1.0
		for d := 0; d < dhtCount; d++ {
			acc := accs[ni*perN+1+d]
			if acc.Mean() < worstMean {
				worstMean = acc.Mean()
				worst = acc
			}
			if acc.Mean() > bestMean {
				bestMean = acc.Mean()
			}
		}
		res.Rows = append(res.Rows, Figure1Row{
			N:           n,
			UniformMean: uni.Mean(),
			UniformStd:  uni.Std(),
			DHTWorst:    worstMean,
			DHTWorstStd: worst.Std(),
			DHTBest:     bestMean,
		})
	}
	return res, nil
}
