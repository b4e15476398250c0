package sim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Experiment couples a runnable experiment with its name and the claims its
// table must satisfy, so drivers (the hetsim CLI, tests) share one registry.
type Experiment struct {
	Name string
	// About is a one-line description shown in help output.
	About string
	// Run regenerates the experiment's table, a pure function of (scale,
	// seed), fanning its jobs across workers goroutines (parallel.go). The
	// observer, nil for none, is attached to every run the experiment
	// executes through run.Run; it is read-only, so no table depends on it.
	Run func(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error)
	// Claims are the claims table's rows (claims.go) about Run's table.
	Claims []Claim
}

// Registry is the per-experiment index: the paper's two figures and the
// extension experiments E3–E13 in presentation order, then the sweeps over
// the message runtime, the async runtime and graph-constrained protocols.
func Registry() []Experiment {
	exp := func(name, about string, run func(Scale, uint64, int, *obs.Observer) (*stats.Table, error)) Experiment {
		e := Experiment{Name: name, About: about, Run: run}
		for _, c := range claims {
			if c.Experiment == name {
				e.Claims = append(e.Claims, c)
			}
		}
		return e
	}
	return []Experiment{
		exp("figure1", "fraction of dates arranged (uniform vs DHT)", runFigure1),
		exp("figure2", "rounds to spread a rumor, all algorithms", runFigure2),
		exp("alpha", "E3: arranged fraction vs per-node load", runAlphaVsLoad),
		exp("ablation", "E4: arranged fraction by selection distribution", runDistributionAblation),
		exp("phases", "E5: Theorem 4 phase structure", runPhases),
		exp("hierarchical", "E6: Theorem 10 rich-first delivery", runHierarchical),
		exp("pipelining", "E7: pipelined dating over a DHT, measured on the handshake", runPipelining),
		exp("mongering", "E8: network-coded multi-block broadcast", runMongering),
		exp("churn", "E9: spreading under crashes", runChurn),
		exp("storage", "E10: replicated storage block exchanges", runStorage),
		exp("multirumor", "E11: concurrent rumors share the dates", runMultiRumorExperiment),
		exp("loads", "E12: worst per-node loads (bandwidth honesty)", runLoadViolation),
		exp("dynamicdht", "E13: spreading over a churning DHT", runDynamicDHT),
		exp("live", "sharded message runtime: latency/loss/churn sensitivity", runLiveSensitivity),
		exp("async", "sync-vs-async spread curves on exponential peer clocks", runAsyncCompare),
		exp("topology", "graph-constrained spreader/stifler spreading: final size vs alpha", runTopologySpread),
		exp("consensus", "conflicting-rumor consensus: rounds to 90% agreement vs K x seeding x merge rule", runConsensusSweep),
	}
}

// Verdicts checks each of e's claims against t, the table e.Run returned,
// and tables the outcome: claim, source, statement, and "holds" or the
// violation found.
func (e Experiment) Verdicts(t *stats.Table) *stats.Table {
	v := stats.NewTable(fmt.Sprintf("Claims — %s", e.Name), "claim", "source", "statement", "verdict")
	for _, c := range e.Claims {
		verdict := "holds"
		if err := c.Check(t); err != nil {
			verdict = "FAILS: " + err.Error()
		}
		v.AddRow(c.ID, c.Source, c.Statement, verdict)
	}
	return v
}
