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
	"strconv"

	"repro/internal/bandwidth"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

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

// runConsensusSweep tables rounds to 90% agreement over K {2,3,5} × seeding
// {random,hub,clustered} × merge rule. Quick scale runs an n=2000 BA graph
// and an n=1000 complete graph; paper scale raises them to 20000/2000. Runs
// are capped at 200 rounds (400 at paper scale); a capped row is marked
// incomplete and reports the plurality lock-in level it reached as its
// agreement. Each cell is one harness job with a derived seed.
func runConsensusSweep(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	nBA, nComplete, maxRounds := 2_000, 1_000, 200
	if scale == ScalePaper {
		nBA, nComplete, maxRounds = 20_000, 2_000, 400
	}
	ba, err := graph.BarabasiAlbert(nBA, 3, rng.Derive(seed, domainConsensusJobs, 1))
	if err != nil {
		return nil, err
	}
	complete, err := graph.Complete(nComplete)
	if err != nil {
		return nil, err
	}
	// One heterogeneous Zipf profile per graph size feeds every weighted
	// row of that graph; derived from the root seed, not from job order.
	baProfile, err := bandwidth.Zipf(nBA, 1.2, 8, 2.0, rng.New(rng.Derive(seed, domainConsensusJobs, 2)))
	if err != nil {
		return nil, err
	}
	completeProfile, err := bandwidth.Zipf(nComplete, 1.2, 8, 2.0, rng.New(rng.Derive(seed, domainConsensusJobs, 3)))
	if err != nil {
		return nil, err
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

	rows := make([][]stats.Cell, len(jobs))
	err = forEach(len(jobs), workers, func(j int, b *par.Budget) error {
		job := jobs[j]
		cfg := gossip.ConsensusConfig{Variants: job.k, Graph: job.g, Seeding: job.seeding, Rule: job.rule, MaxRounds: maxRounds}
		if job.rule == gossip.RuleWeighted {
			cfg.Profile = job.profile
		}
		rep, err := runJob(cfg, rng.Derive(seed, domainConsensusJobs, uint64(j), 4), b, o)
		if err != nil {
			return fmt.Errorf("sim: consensus %s K=%d %v %v: %w", job.name, job.k, job.seeding, job.rule, err)
		}
		det := rep.Detail.(gossip.ConsensusResult)
		rows[j] = []stats.Cell{stats.Label(job.name), stats.Int(job.g.N()), stats.Int(job.k),
			stats.Label(job.seeding.String()), stats.Label(job.rule.String()), stats.Int(rep.Rounds),
			stats.Label(strconv.FormatBool(rep.Completed)), stats.Int(det.Winner),
			stats.Num("%.4f", det.Agreement), stats.Int(rep.Messages)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return table("Conflicting-rumor consensus — rounds to 90% agreement vs variants x seeding x merge rule",
		[]string{"graph", "n", "K", "seeding", "rule", "rounds", "completed", "winner", "agreement", "messages"}, rows), nil
}
