package sim

import (
	"fmt"

	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/run"
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

// RunLoadViolation measures the bandwidth honesty of every algorithm: the
// dating service must stay at 1/1; the unfair baselines overdrive nodes by
// Theta(log n / log log n) (balls-into-bins maxima). Each repetition is one
// harness job seeded from (seed, algorithm index, repetition).
func RunLoadViolation(scale Scale, seed uint64, workers int, o *obs.Observer) (LoadResult, error) {
	n, reps := 2048, 10
	if scale == ScalePaper {
		n, reps = 16384, 100
	}
	algos := gossip.Algorithms()
	outs, err := sweep(len(algos), reps, workers, seed, domainLoads, func(c, _ int, jobSeed uint64, b *par.Budget) (run.Report, error) {
		rep, err := runJob(gossip.Config{Algorithm: algos[c], N: n, Source: 0}, jobSeed, b, o)
		if err == nil && !rep.Completed {
			err = fmt.Errorf("sim: %v incomplete in load experiment", algos[c])
		}
		return rep, err
	})
	if err != nil {
		return LoadResult{}, err
	}

	res := LoadResult{N: n}
	for c, a := range algos {
		var inL, outL, rounds stats.Accumulator
		for _, rep := range outs[c*reps : (c+1)*reps] {
			inL.Add(float64(rep.MaxInLoad))
			outL.Add(float64(rep.MaxOutLoad))
			rounds.Add(float64(rep.Rounds))
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
