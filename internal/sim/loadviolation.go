package sim

import (
	"fmt"

	"repro/internal/gossip"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// LoadRow is one algorithm of experiment E12: the worst per-round per-node
// loads observed while spreading one rumor. A unit-bandwidth node can
// legally send one and receive one message per round; anything above that
// is bandwidth the algorithm silently assumes, which is precisely the
// advantage the paper says makes PUSH/PULL comparisons unfair.
type LoadRow struct {
	Algorithm  gossip.Algorithm
	MaxInLoad  float64 // mean over reps of the worst per-round receive count
	MaxOutLoad float64 // mean over reps of the worst per-round serve count
	Rounds     float64
}

// LoadResult is the E12 outcome.
type LoadResult struct {
	N    int
	Rows []LoadRow
}

// Table renders E12.
func (r LoadResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("E12 — worst per-round node loads while spreading (n = %d, unit bandwidth)", r.N),
		"algorithm", "max in-load", "max out-load", "rounds")
	for _, row := range r.Rows {
		t.AddRow(row.Algorithm.String(), fmt.Sprintf("%.1f", row.MaxInLoad),
			fmt.Sprintf("%.1f", row.MaxOutLoad), fmt.Sprintf("%.1f", row.Rounds))
	}
	return t
}

// RunLoadViolationPar measures the bandwidth honesty of every algorithm:
// the dating service must stay at 1/1; the unfair baselines overdrive nodes
// by Theta(log n / log log n) (balls-into-bins maxima). Each repetition is
// one harness job seeded from (seed, algorithm index, repetition).
func RunLoadViolationPar(scale Scale, seed uint64, workers int) (LoadResult, error) {
	n, reps := 2048, 10
	if scale == ScalePaper {
		n, reps = 16384, 100
	}
	algos := gossip.Algorithms()
	type outcome struct{ in, out, rounds float64 }
	outs := make([]outcome, len(algos)*reps)
	err := forEach(len(outs), workers, func(j int, _ *par.Budget) error {
		ai, rep := j/reps, j%reps
		s := rng.New(rng.Derive(seed, domainLoads, uint64(ai), uint64(rep)))
		r, err := gossip.Run(gossip.Config{Algorithm: algos[ai], N: n, Source: 0}, s, nil, nil)
		if err != nil {
			return err
		}
		if !r.Completed {
			return fmt.Errorf("sim: %v incomplete in load experiment", algos[ai])
		}
		outs[j] = outcome{in: float64(r.MaxInLoad), out: float64(r.MaxOutLoad), rounds: float64(r.Rounds)}
		return nil
	})
	if err != nil {
		return LoadResult{}, err
	}

	res := LoadResult{N: n}
	for ai, a := range algos {
		var inL, outL, rounds stats.Accumulator
		for rep := 0; rep < reps; rep++ {
			o := outs[ai*reps+rep]
			inL.Add(o.in)
			outL.Add(o.out)
			rounds.Add(o.rounds)
		}
		res.Rows = append(res.Rows, LoadRow{
			Algorithm:  a,
			MaxInLoad:  inL.Mean(),
			MaxOutLoad: outL.Mean(),
			Rounds:     rounds.Mean(),
		})
	}
	return res, nil
}
