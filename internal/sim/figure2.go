package sim

import (
	"fmt"
	"sort"

	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Figure2Cell is one (n, algorithm) aggregate of Figure 2.
type Figure2Cell struct {
	Mean float64
	Std  float64
}

// Figure2Row is one n-value of Figure 2: rounds to spread a single rumor
// for each algorithm.
type Figure2Row struct {
	N     int
	Cells map[gossip.Algorithm]Figure2Cell
}

// Figure2Result is the full reproduction of Figure 2.
type Figure2Result struct {
	Rows []Figure2Row
}

// Table renders the result with algorithms in the paper's display order.
func (r Figure2Result) Table() *stats.Table {
	headers := []string{"n"}
	for _, a := range gossip.Algorithms() {
		headers = append(headers, a.String())
	}
	t := stats.NewTable("Figure 2 — rounds to spread a single rumor (mean ± std)", headers...)
	for _, row := range r.Rows {
		cells := []string{fmt.Sprint(row.N)}
		for _, a := range gossip.Algorithms() {
			c := row.Cells[a]
			cells = append(cells, fmt.Sprintf("%.2f ± %.2f", c.Mean, c.Std))
		}
		t.AddRow(cells...)
	}
	return t
}

// RunFigure2 reproduces Figure 2: for each network size, run every
// algorithm repeatedly from a fresh source and report mean and standard
// deviation of the number of rounds until all nodes are informed.
//
// Every single repetition is one harness job — one spreading run through
// run.Run, seeded from (seed, n index, algorithm index, repetition index) —
// so the sweep saturates workers goroutines even for a single
// (n, algorithm) cell. The result is byte-identical for every worker count.
func RunFigure2(scale Scale, seed uint64, workers int, o *obs.Observer) (Figure2Result, error) {
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
	// Largest networks first: a job's cost is dominated by n (four orders
	// of magnitude across the sweep), and workers steal in list order —
	// an expensive job started last would bound the wall clock. Each job
	// writes its precomputed slot and aggregation reads slots in fixed
	// order, so the table is unaffected by the schedule.
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
		return Figure2Result{}, err
	}

	// Aggregate in coordinate order; coords list cells contiguously.
	var res Figure2Result
	idx := 0
	for _, n := range ns {
		reps := repsFor(n)
		row := Figure2Row{N: n, Cells: map[gossip.Algorithm]Figure2Cell{}}
		for _, a := range algos {
			var acc stats.Accumulator
			for rep := 0; rep < reps; rep++ {
				acc.Add(rounds[idx])
				idx++
			}
			row.Cells[a] = Figure2Cell{Mean: acc.Mean(), Std: acc.Std()}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
