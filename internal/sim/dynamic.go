package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// DynamicRow is one churn rate of experiment E13.
type DynamicRow struct {
	ReplaceProb float64 // per-node per-round replacement probability
	RoundsTo95  float64 // mean rounds until 95% of nodes are informed
	SteadyState float64 // mean informed fraction over the final quarter
	Replaced    float64 // mean nodes replaced during the run
}

// DynamicResult is the E13 outcome: rumor spreading over a DHT whose
// membership churns every round. Replaced nodes rejoin elsewhere on the
// ring *uninformed*, so under sustained churn the network reaches a steady
// state rather than 100% coverage: fresh uninformed peers appear at rate
// p*n per round and are re-informed at rate ~alpha per round, giving an
// equilibrium coverage of about 1 - p/alpha (alpha ~ 0.5 for the DHT
// distribution). The experiment verifies the rumor both spreads fast and
// persists at that equilibrium.
type DynamicResult struct {
	N      int
	Rounds int // rounds simulated per run
	Rows   []DynamicRow
}

// Table renders E13.
func (r DynamicResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("E13 — spreading over a churning DHT (n = %d, %d rounds; replaced nodes forget the rumor)", r.N, r.Rounds),
		"replace prob", "rounds to 95%", "steady-state coverage", "nodes replaced")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.3f", row.ReplaceProb), fmt.Sprintf("%.1f", row.RoundsTo95),
			fmt.Sprintf("%.3f", row.SteadyState), fmt.Sprintf("%.0f", row.Replaced))
	}
	return t
}

// RunDynamicDHTPar spreads one rumor while, at the start of every round,
// each non-source node is replaced with probability p: its ring position is
// resampled and it forgets the rumor (a new peer reusing the id). Each
// repetition is one harness job seeded from (seed, churn-rate index,
// repetition); inside a job, every Arrange draws spare tokens from the
// harness's shared worker budget, so once the sweep's tail leaves cores
// idle the remaining repetitions parallelize their rounds — the Arranger
// is worker-count independent, so the numbers cannot move.
func RunDynamicDHTPar(scale Scale, seed uint64, workers int) (DynamicResult, error) {
	n, reps, rounds := 512, 8, 120
	if scale == ScalePaper {
		n, reps, rounds = 4096, 50, 200
	}
	probs := []float64{0, 0.005, 0.02}
	outs := make([]churnOutcome, len(probs)*reps)
	err := forEach(len(outs), workers, func(j int, b *par.Budget) error {
		pi, rep := j/reps, j%reps
		s := rng.New(rng.Derive(seed, domainDynamic, uint64(pi), uint64(rep)))
		out, err := spreadOverChurningRing(n, probs[pi], rounds, b, s)
		if err != nil {
			return err
		}
		if out.roundsTo95 == 0 {
			return fmt.Errorf("sim: coverage never reached 95%% at p=%v", probs[pi])
		}
		outs[j] = out
		return nil
	})
	if err != nil {
		return DynamicResult{}, err
	}

	res := DynamicResult{N: n, Rounds: rounds}
	for pi, p := range probs {
		var to95, steady, replaced stats.Accumulator
		for rep := 0; rep < reps; rep++ {
			out := outs[pi*reps+rep]
			to95.Add(float64(out.roundsTo95))
			steady.Add(out.steadyCoverage)
			replaced.Add(float64(out.replaced))
		}
		res.Rows = append(res.Rows, DynamicRow{
			ReplaceProb: p, RoundsTo95: to95.Mean(),
			SteadyState: steady.Mean(), Replaced: replaced.Mean(),
		})
	}
	return res, nil
}

// churnOutcome summarizes one churning-ring run.
type churnOutcome struct {
	roundsTo95     int
	steadyCoverage float64
	replaced       int
}

// spreadOverChurningRing runs one spreading instance for a fixed number of
// rounds under sustained churn. Each dating round's Arrange draws workers
// from the shared budget (nil = serial); since the Arranger is worker-count
// independent and each round's seed is a single draw from s, the outcome
// depends only on s.
func spreadOverChurningRing(n int, replaceProb float64, rounds int, b *par.Budget, s *rng.Stream) (churnOutcome, error) {
	var out churnOutcome
	ring, err := overlay.NewDynamicRing(n, s)
	if err != nil {
		return out, err
	}
	sel, err := core.NewDynamicRingSelector(ring)
	if err != nil {
		return out, err
	}
	arr, err := core.NewArranger(sel)
	if err != nil {
		return out, err
	}
	informed := make([]bool, n)
	informed[0] = true

	supply := make([]int, n)
	demand := make([]int, n)
	for i := range supply {
		supply[i] = 1
		demand[i] = 1
	}

	tailStart := rounds - rounds/4
	var tail stats.Accumulator
	for round := 1; round <= rounds; round++ {
		if replaceProb > 0 {
			for id := 1; id < n; id++ {
				if s.Bernoulli(replaceProb) {
					if err := ring.Replace(id, s); err != nil {
						return out, err
					}
					informed[id] = false
					out.replaced++
				}
			}
		}
		dates, err := arr.ArrangeShared(supply, demand, s.Uint64(), b)
		if err != nil {
			return out, err
		}
		next := make([]bool, n)
		copy(next, informed)
		for _, d := range dates {
			if informed[d.Sender] {
				next[d.Receiver] = true
			}
		}
		informed = next

		count := 0
		for _, b := range informed {
			if b {
				count++
			}
		}
		coverage := float64(count) / float64(n)
		if out.roundsTo95 == 0 && coverage >= 0.95 {
			out.roundsTo95 = round
		}
		if round > tailStart {
			tail.Add(coverage)
		}
	}
	out.steadyCoverage = tail.Mean()
	return out, nil
}
