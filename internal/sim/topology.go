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
	"runtime"

	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/stats"
)

// domainTopologyJobs derives the per-job root seeds of the topology sweep
// (see the allocation map in internal/rng/domains.go).
const domainTopologyJobs uint64 = 0x81

// TopologySpreadRow is one (graph, alpha, start) cell of the sweep.
type TopologySpreadRow struct {
	Graph       string  `json:"graph"`
	N           int     `json:"n"`
	Alpha       float64 `json:"alpha"`
	Start       string  `json:"start"`
	Rounds      int     `json:"rounds"`
	FinalSpread float64 `json:"final_spread"`
	Completed   bool    `json:"completed"`
	Messages    int64   `json:"messages"`
}

// TopologySpreadResult is the topology experiment of the registry: final
// spread fraction versus stifling rate alpha on Barabási–Albert, Erdős–Rényi
// and complete graphs, with the BA rows run from both a random source and
// the highest-degree hub.
type TopologySpreadResult struct {
	Rows []TopologySpreadRow `json:"rows"`
}

// Table renders the sweep in the repository's table shape.
func (r TopologySpreadResult) Table() *stats.Table {
	t := stats.NewTable(
		"Graph-constrained spreading — final spread fraction vs stifling rate alpha",
		"graph", "n", "alpha", "start", "rounds", "final spread", "completed", "messages",
	)
	for _, row := range r.Rows {
		t.AddRow(
			row.Graph,
			fmt.Sprint(row.N),
			fmt.Sprintf("%.2f", row.Alpha),
			row.Start,
			fmt.Sprint(row.Rounds),
			fmt.Sprintf("%.4f", row.FinalSpread),
			fmt.Sprint(row.Completed),
			fmt.Sprint(row.Messages),
		)
	}
	return t
}

// topologyJob is one cell of the sweep; jobs share the read-only graphs and
// differ only in coordinates.
type topologyJob struct {
	name   string
	g      *graph.CSR
	alpha  float64
	start  string
	source int
}

// RunTopologySpread is the registry entry point for the topology experiment.
// Quick scale runs n=2000 generated graphs and an n=1000 complete graph
// (seconds); paper scale raises the generated graphs to n=20000 (the
// complete graph stays small — its CSR is O(n²)). Jobs fan across workers
// goroutines with per-job derived seeds, so the table is byte-identical for
// every worker count.
func RunTopologySpread(scale Scale, seed uint64, workers int) (TopologySpreadResult, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	nGen, nComplete := 2_000, 1_000
	if scale == ScalePaper {
		nGen, nComplete = 20_000, 2_000
	}
	ba, err := graph.BarabasiAlbert(nGen, 3, rng.Derive(seed, domainTopologyJobs, 1))
	if err != nil {
		return TopologySpreadResult{}, err
	}
	er, err := graph.ErdosRenyi(nGen, 6/float64(nGen-1), rng.Derive(seed, domainTopologyJobs, 2))
	if err != nil {
		return TopologySpreadResult{}, err
	}
	complete, err := graph.Complete(nComplete)
	if err != nil {
		return TopologySpreadResult{}, err
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

	rows := make([]TopologySpreadRow, len(jobs))
	err = forEach(len(jobs), workers, func(j int, _ *par.Budget) error {
		job := jobs[j]
		rep, err := run.Run(
			gossip.TopologyConfig{Graph: job.g, Source: job.source, Alpha: job.alpha},
			run.WithSeed(rng.Derive(seed, domainTopologyJobs, uint64(j), 3)),
		)
		if err != nil {
			return fmt.Errorf("sim: topology %s alpha=%.2f %s: %w", job.name, job.alpha, job.start, err)
		}
		det := rep.Detail.(gossip.TopologyResult)
		rows[j] = TopologySpreadRow{
			Graph:       job.name,
			N:           job.g.N(),
			Alpha:       job.alpha,
			Start:       job.start,
			Rounds:      rep.Rounds,
			FinalSpread: det.FinalSpread,
			Completed:   rep.Completed,
			Messages:    rep.Messages,
		}
		return nil
	})
	if err != nil {
		return TopologySpreadResult{}, err
	}
	return TopologySpreadResult{Rows: rows}, nil
}
