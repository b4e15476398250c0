package sim

// This file is the topology experiment: rumor spreading
// constrained to generated graphs, with the spreader/stifler dynamics whose
// stifling rate alpha decides how much of the network the rumor reaches.
// Where the paper's protocols assume any-to-any rendezvous, these runs put
// the same machinery on scale-free, random and complete topologies and
// measure the final spread fraction — including the hub-vs-random source
// comparison that makes scale-free spreading's seed sensitivity visible.

import (
	"fmt"
	"strconv"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// topologyJob is one cell of the sweep; jobs share the read-only graphs and
// differ only in coordinates.
type topologyJob struct {
	name   string
	g      *graph.CSR
	alpha  float64
	start  string
	source int
}

// runTopologySpread tables the final spread fraction versus alpha on
// Barabási–Albert (from a random source and from the hub), Erdős–Rényi and
// complete graphs. Quick scale runs n=2000 generated graphs and an n=1000
// complete graph; paper scale raises the generated graphs to n=20000 (the
// complete graph's CSR is O(n²)). Each cell is one harness job with a
// derived seed.
func runTopologySpread(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	nGen, nComplete := 2_000, 1_000
	if scale == ScalePaper {
		nGen, nComplete = 20_000, 2_000
	}
	ba, err := graph.BarabasiAlbert(nGen, 3, rng.Derive(seed, domainTopologyJobs, 1))
	if err != nil {
		return nil, err
	}
	er, err := graph.ErdosRenyi(nGen, 6/float64(nGen-1), rng.Derive(seed, domainTopologyJobs, 2))
	if err != nil {
		return nil, err
	}
	complete, err := graph.Complete(nComplete)
	if err != nil {
		return nil, err
	}

	var jobs []topologyJob
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		jobs = append(jobs,
			topologyJob{"ba", ba, alpha, "random", 0},
			topologyJob{"ba", ba, alpha, "hub", ba.Hub()},
			topologyJob{"er", er, alpha, "random", 0},
			topologyJob{"complete", complete, alpha, "random", 0},
		)
	}

	rows := make([][]stats.Cell, len(jobs))
	err = forEach(len(jobs), workers, func(j int, b *par.Budget) error {
		job := jobs[j]
		rep, err := runJob(gossip.TopologyConfig{Graph: job.g, Source: job.source, Alpha: job.alpha},
			rng.Derive(seed, domainTopologyJobs, uint64(j), 3), b, o)
		if err != nil {
			return fmt.Errorf("sim: topology %s alpha=%.2f %s: %w", job.name, job.alpha, job.start, err)
		}
		det := rep.Detail.(gossip.TopologyResult)
		rows[j] = []stats.Cell{stats.Label(job.name), stats.Int(job.g.N()), stats.Num("%.2f", job.alpha),
			stats.Label(job.start), stats.Int(rep.Rounds), stats.Num("%.4f", det.FinalSpread),
			stats.Label(strconv.FormatBool(rep.Completed)), stats.Int(rep.Messages)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return table("Graph-constrained spreading — final spread fraction vs stifling rate alpha",
		[]string{"graph", "n", "alpha", "start", "rounds", "final spread", "completed", "messages"}, rows), nil
}
