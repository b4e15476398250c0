package sim

// This file is the consensus experiment: K conflicting
// variants of one rumor seeded by geometry and merged per peer under a rule,
// measured as rounds to 90% agreement. The sweep crosses variant count,
// seeding geometry and merge rule on complete and Barabási–Albert graphs —
// the complete graph recovers the paper's any-to-any mixing (majority
// converges in O(log n) rounds there), while the sparse scale-free graph
// shows the ossification effect: lifetime majority tallies lock in local
// pluralities and agreement stalls below threshold, where the
// latest-timestamp rule still floods to full consensus.

import (
	"fmt"
	"runtime"

	"repro/internal/bandwidth"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/stats"
)

// domainConsensusJobs derives the per-job root seeds, graph seeds and the
// weighted rows' Zipf profiles of the consensus sweep (see the allocation
// map in internal/rng/domains.go).
const domainConsensusJobs uint64 = 0x82

// ConsensusRow is one (graph, K, seeding, rule) cell of the sweep.
type ConsensusRow struct {
	Graph     string  `json:"graph"`
	N         int     `json:"n"`
	Variants  int     `json:"variants"`
	Seeding   string  `json:"seeding"`
	Rule      string  `json:"rule"`
	Rounds    int     `json:"rounds"`
	Completed bool    `json:"completed"`
	Winner    int     `json:"winner"`
	Agreement float64 `json:"agreement"`
	Messages  int64   `json:"messages"`
}

// ConsensusSweepResult is the consensus experiment of the registry: the
// convergence-time table (rounds to 90% agreement, capped rows marked
// incomplete with the agreement they did reach) over variant count {2,3,5}
// × seeding {random,hub,clustered} × the three merge rules, on complete and
// Barabási–Albert graphs.
type ConsensusSweepResult struct {
	Rows []ConsensusRow `json:"rows"`
}

// Table renders the sweep in the repository's table shape.
func (r ConsensusSweepResult) Table() *stats.Table {
	t := stats.NewTable(
		"Conflicting-rumor consensus — rounds to 90% agreement vs variants x seeding x merge rule",
		"graph", "n", "K", "seeding", "rule", "rounds", "completed", "winner", "agreement", "messages",
	)
	for _, row := range r.Rows {
		t.AddRow(
			row.Graph,
			fmt.Sprint(row.N),
			fmt.Sprint(row.Variants),
			row.Seeding,
			row.Rule,
			fmt.Sprint(row.Rounds),
			fmt.Sprint(row.Completed),
			fmt.Sprint(row.Winner),
			fmt.Sprintf("%.4f", row.Agreement),
			fmt.Sprint(row.Messages),
		)
	}
	return t
}

// consensusJob is one cell of the sweep; jobs share the read-only graphs
// and profiles and differ only in coordinates.
type consensusJob struct {
	name    string
	g       *graph.CSR
	profile bandwidth.Profile
	k       int
	seeding gossip.ConsensusSeeding
	rule    gossip.MergeRule
}

// RunConsensusSweep is the registry entry point for the consensus
// experiment. Quick scale runs an n=2000 BA graph and an n=1000 complete
// graph (seconds); paper scale raises them to 20000/2000. Runs are capped
// at 200 rounds (400 at paper scale) — on the sparse graph the majority and
// weighted rules are expected to hit the cap, and the row then reports the
// plurality lock-in level in its agreement column. Jobs fan across workers
// goroutines with per-job derived seeds, so the table is byte-identical for
// every worker count.
func RunConsensusSweep(scale Scale, seed uint64, workers int) (ConsensusSweepResult, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	nBA, nComplete, maxRounds := 2_000, 1_000, 200
	if scale == ScalePaper {
		nBA, nComplete, maxRounds = 20_000, 2_000, 400
	}
	ba, err := graph.BarabasiAlbert(nBA, 3, rng.Derive(seed, domainConsensusJobs, 1))
	if err != nil {
		return ConsensusSweepResult{}, err
	}
	complete, err := graph.Complete(nComplete)
	if err != nil {
		return ConsensusSweepResult{}, err
	}
	// One heterogeneous Zipf profile per graph size feeds every weighted
	// row of that graph; derived from the root seed, not from job order.
	baProfile, err := bandwidth.Zipf(nBA, 1.2, 8, 2.0, rng.New(rng.Derive(seed, domainConsensusJobs, 2)))
	if err != nil {
		return ConsensusSweepResult{}, err
	}
	completeProfile, err := bandwidth.Zipf(nComplete, 1.2, 8, 2.0, rng.New(rng.Derive(seed, domainConsensusJobs, 3)))
	if err != nil {
		return ConsensusSweepResult{}, err
	}

	var jobs []consensusJob
	for _, k := range []int{2, 3, 5} {
		for _, seeding := range []gossip.ConsensusSeeding{gossip.SeedDistinct, gossip.SeedHubLeaf, gossip.SeedClustered} {
			for _, rule := range []gossip.MergeRule{gossip.RuleMajority, gossip.RuleLatest, gossip.RuleWeighted} {
				jobs = append(jobs,
					consensusJob{"complete", complete, completeProfile, k, seeding, rule},
					consensusJob{"ba", ba, baProfile, k, seeding, rule},
				)
			}
		}
	}

	rows := make([]ConsensusRow, len(jobs))
	err = forEach(len(jobs), workers, func(j int, _ *par.Budget) error {
		job := jobs[j]
		cfg := gossip.ConsensusConfig{
			Variants:  job.k,
			Graph:     job.g,
			Seeding:   job.seeding,
			Rule:      job.rule,
			MaxRounds: maxRounds,
		}
		if job.rule == gossip.RuleWeighted {
			cfg.Profile = job.profile
		}
		rep, err := run.Run(cfg, run.WithSeed(rng.Derive(seed, domainConsensusJobs, uint64(j), 4)))
		if err != nil {
			return fmt.Errorf("sim: consensus %s K=%d %v %v: %w", job.name, job.k, job.seeding, job.rule, err)
		}
		det := rep.Detail.(gossip.ConsensusResult)
		rows[j] = ConsensusRow{
			Graph:     job.name,
			N:         job.g.N(),
			Variants:  job.k,
			Seeding:   job.seeding.String(),
			Rule:      job.rule.String(),
			Rounds:    rep.Rounds,
			Completed: rep.Completed,
			Winner:    det.Winner,
			Agreement: det.Agreement,
			Messages:  rep.Messages,
		}
		return nil
	})
	if err != nil {
		return ConsensusSweepResult{}, err
	}
	return ConsensusSweepResult{Rows: rows}, nil
}
