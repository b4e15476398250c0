package sim

import (
	"repro/internal/obs"
	"repro/internal/stats"
)

// Experiment couples a runnable experiment with its name, so drivers (the
// hetsim CLI, tests) share one registry.
type Experiment struct {
	Name string
	// About is a one-line description shown in help output.
	About string
	// Run regenerates the experiment at a scale and root seed, fanning its
	// jobs across workers goroutines (see parallel.go); the table is
	// byte-identical for every worker count. Two experiments print what a
	// worker count cannot fix: live feeds the knob to its runtime as the
	// shard count and reports its timing, and protocols reports the
	// budget and each run's seconds. The observer, nil for none, is
	// attached to every run the experiment executes through run.Run;
	// observers are read-only, so no table depends on it.
	Run func(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error)
}

// tabulate adapts an experiment to the registry signature.
func tabulate[T interface{ Table() *stats.Table }](f func(Scale, uint64, int, *obs.Observer) (T, error)) func(Scale, uint64, int, *obs.Observer) (*stats.Table, error) {
	return func(sc Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
		res, err := f(sc, seed, workers, o)
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}
}

// Registry is the per-experiment index: the paper's two figures and the
// extension experiments E3–E13 in presentation order, then the runtime
// sweeps that are not part of the paper's evaluation but share the same
// driver interface.
func Registry() []Experiment {
	return []Experiment{
		{"figure1", "fraction of dates arranged (uniform vs DHT)", tabulate(RunFigure1)},
		{"figure2", "rounds to spread a rumor, all algorithms", tabulate(RunFigure2)},
		{"alpha", "E3: arranged fraction vs per-node load", tabulate(RunAlphaVsLoad)},
		{"ablation", "E4: arranged fraction by selection distribution", tabulate(RunDistributionAblation)},
		{"phases", "E5: Theorem 4 phase structure", tabulate(RunPhases)},
		{"hierarchical", "E6: Theorem 10 rich-first delivery", tabulate(RunHierarchical)},
		{"pipelining", "E7: pipelined dating over a DHT, measured on the handshake", tabulate(RunPipelining)},
		{"mongering", "E8: network-coded multi-block broadcast", tabulate(RunMongering)},
		{"churn", "E9: spreading under crashes", tabulate(RunChurn)},
		{"storage", "E10: replicated storage block exchanges", tabulate(RunStorage)},
		{"multirumor", "E11: concurrent rumors share the dates", tabulate(RunMultiRumorExperiment)},
		{"loads", "E12: worst per-node loads (bandwidth honesty)", tabulate(RunLoadViolation)},
		{"dynamicdht", "E13: spreading over a churning DHT", tabulate(RunDynamicDHT)},
		{"live", "sharded message runtime: scale sweep + latency/loss sensitivity", tabulate(RunLiveScaled)},
		{"async", "sync-vs-async spread curves on exponential peer clocks", tabulate(RunAsyncCompare)},
		{"topology", "graph-constrained spreader/stifler spreading: final size vs alpha", tabulate(RunTopologySpread)},
		{"consensus", "conflicting-rumor consensus: rounds to 90% agreement vs K x seeding x merge rule", tabulate(RunConsensusSweep)},
		{"protocols", "every protocol of the spec table via the unified run.Run entrypoint", tabulate(RunProtocols)},
	}
}
