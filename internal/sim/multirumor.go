package sim

import (
	"fmt"

	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/par"
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

// RunMultiRumorExperiment injects R rumors two rounds apart on distinct
// sources and measures completion, for R in {1, 2, 4, 8}. Each repetition
// is one harness job seeded from (seed, rumor-count index, repetition).
func RunMultiRumorExperiment(scale Scale, seed uint64, workers int, o *obs.Observer) (MultiRumorSimResult, error) {
	n, reps := 512, 8
	if scale == ScalePaper {
		n, reps = 4096, 50
	}
	rumorCounts := []int{1, 2, 4, 8}
	type outcome struct{ rounds, perRumor float64 }
	outs, err := sweep(len(rumorCounts), reps, workers, seed, domainMultiRumor, func(c, _ int, jobSeed uint64, b *par.Budget) (outcome, error) {
		rumors := rumorCounts[c]
		injections := make([]gossip.Injection, rumors)
		for r := range injections {
			injections[r] = gossip.Injection{Round: 1 + 2*r, Source: (r * 37) % n}
		}
		rep, err := runJob(gossip.MultiRumorConfig{
			N:          n,
			Injections: injections,
			Forwarding: gossip.ForwardRandom,
		}, jobSeed, b, o)
		if err != nil {
			return outcome{}, err
		}
		if !rep.Completed {
			return outcome{}, fmt.Errorf("sim: multi-rumor run incomplete (R=%d)", rumors)
		}
		var sum float64
		for _, d := range rep.Detail.(gossip.MultiRumorResult).PerRumorDone {
			sum += float64(d)
		}
		return outcome{rounds: float64(rep.Rounds), perRumor: sum / float64(rumors)}, nil
	})
	if err != nil {
		return MultiRumorSimResult{}, err
	}

	res := MultiRumorSimResult{N: n}
	for c, rumors := range rumorCounts {
		var rounds, per stats.Accumulator
		for _, out := range outs[c*reps : (c+1)*reps] {
			rounds.Add(out.rounds)
			per.Add(out.perRumor)
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
