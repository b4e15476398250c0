package sim

import (
	"fmt"

	"repro/internal/gossip"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// MultiRumorRow is one rumor-count of experiment E11.
type MultiRumorRow struct {
	Rumors       int
	Rounds       float64 // rounds until every node knows every rumor
	PerRumorMean float64 // mean per-rumor completion round
}

// MultiRumorSimResult is the E11 outcome: spreading R rumors injected over
// time costs far less than R sequential broadcasts because rumors share the
// arranged dates.
type MultiRumorSimResult struct {
	N            int
	SingleRounds float64 // baseline: one rumor alone
	Rows         []MultiRumorRow
}

// Table renders E11.
func (r MultiRumorSimResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("E11 — concurrent rumors over one dating service (n = %d; single rumor alone: %.1f rounds)",
			r.N, r.SingleRounds),
		"rumors", "all-done rounds", "per-rumor mean", "vs sequential")
	for _, row := range r.Rows {
		seq := r.SingleRounds * float64(row.Rumors)
		t.AddRow(fmt.Sprint(row.Rumors), fmt.Sprintf("%.1f", row.Rounds),
			fmt.Sprintf("%.1f", row.PerRumorMean), fmt.Sprintf("%.1fx faster", seq/row.Rounds))
	}
	return t
}

// RunMultiRumorExperimentPar injects R rumors two rounds apart on distinct
// sources and measures completion, for R in {1, 2, 4, 8}. Each repetition
// is one harness job seeded from (seed, rumor-count index, repetition).
func RunMultiRumorExperimentPar(scale Scale, seed uint64, workers int) (MultiRumorSimResult, error) {
	n, reps := 512, 8
	if scale == ScalePaper {
		n, reps = 4096, 50
	}
	rumorCounts := []int{1, 2, 4, 8}
	type outcome struct{ rounds, perRumor float64 }
	outs := make([]outcome, len(rumorCounts)*reps)
	err := forEach(len(outs), workers, func(j int, _ *par.Budget) error {
		ri, rep := j/reps, j%reps
		rumors := rumorCounts[ri]
		injections := make([]gossip.Injection, rumors)
		for r := range injections {
			injections[r] = gossip.Injection{Round: 1 + 2*r, Source: (r * 37) % n}
		}
		s := rng.New(rng.Derive(seed, domainMultiRumor, uint64(ri), uint64(rep)))
		mr, err := gossip.RunMultiRumor(gossip.MultiRumorConfig{
			N:          n,
			Injections: injections,
			Forwarding: gossip.ForwardRandom,
		}, s, nil)
		if err != nil {
			return err
		}
		if !mr.Completed {
			return fmt.Errorf("sim: multi-rumor run incomplete (R=%d)", rumors)
		}
		var sum float64
		for _, d := range mr.PerRumorDone {
			sum += float64(d)
		}
		outs[j] = outcome{rounds: float64(mr.Rounds), perRumor: sum / float64(rumors)}
		return nil
	})
	if err != nil {
		return MultiRumorSimResult{}, err
	}

	var res MultiRumorSimResult
	res.N = n
	for ri, rumors := range rumorCounts {
		var rounds, per stats.Accumulator
		for rep := 0; rep < reps; rep++ {
			rounds.Add(outs[ri*reps+rep].rounds)
			per.Add(outs[ri*reps+rep].perRumor)
		}
		if rumors == 1 {
			res.SingleRounds = rounds.Mean()
		}
		res.Rows = append(res.Rows, MultiRumorRow{
			Rumors:       rumors,
			Rounds:       rounds.Mean(),
			PerRumorMean: per.Mean(),
		})
	}
	return res, nil
}
