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
	// Run regenerates the experiment at a scale and root seed, fanning
	// repetitions across workers goroutines where the experiment supports
	// harness parallelism (see parallel.go); results are byte-identical
	// for every worker count. Experiments without repetition parallelism
	// accept the knob and run serially. The live benchmark is special: it
	// feeds the knob to its runtime as the shard count, and only its timing
	// columns vary run to run. The observer, nil for none, is attached to
	// every run the experiment executes through run.Run; observers are
	// read-only, so no table depends on it.
	Run func(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error)
}

// obsTabler adapts an experiment that runs through run.Run to the registry
// signature.
func obsTabler[T interface{ Table() *stats.Table }](f func(Scale, uint64, int, *obs.Observer) (T, error)) func(Scale, uint64, int, *obs.Observer) (*stats.Table, error) {
	return func(sc Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
		res, err := f(sc, seed, workers, o)
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}
}

// parTabler adapts a workers-aware experiment; the observer is ignored.
func parTabler[T interface{ Table() *stats.Table }](f func(Scale, uint64, int) (T, error)) func(Scale, uint64, int, *obs.Observer) (*stats.Table, error) {
	return obsTabler(func(sc Scale, seed uint64, workers int, _ *obs.Observer) (T, error) { return f(sc, seed, workers) })
}

// tabler adapts a serial experiment; the workers knob and the observer are
// accepted and ignored.
func tabler[T interface{ Table() *stats.Table }](f func(Scale, uint64) (T, error)) func(Scale, uint64, int, *obs.Observer) (*stats.Table, error) {
	return parTabler(func(sc Scale, seed uint64, _ int) (T, error) { return f(sc, seed) })
}

// Registry is the per-experiment index: the paper's two figures and the
// extension experiments E3–E13 in presentation order, then the runtime
// sweeps that are not part of the paper's evaluation but share the same
// driver interface.
func Registry() []Experiment {
	return []Experiment{
		{"figure1", "fraction of dates arranged (uniform vs DHT)", parTabler(RunFigure1Par)},
		{"figure2", "rounds to spread a rumor, all algorithms", parTabler(RunFigure2Par)},
		{"alpha", "E3: arranged fraction vs per-node load", tabler(RunAlphaVsLoad)},
		{"ablation", "E4: arranged fraction by selection distribution", tabler(RunDistributionAblation)},
		{"phases", "E5: Theorem 4 phase structure", tabler(RunPhases)},
		{"hierarchical", "E6: Theorem 10 rich-first delivery", tabler(RunHierarchical)},
		{"pipelining", "E7: pipelined dating over a DHT, measured on the handshake", tabler(RunPipelining)},
		{"mongering", "E8: network-coded multi-block broadcast", tabler(RunMongering)},
		{"churn", "E9: spreading under crashes", tabler(RunChurn)},
		{"storage", "E10: replicated storage block exchanges", parTabler(RunStoragePar)},
		{"multirumor", "E11: concurrent rumors share the dates", parTabler(RunMultiRumorExperimentPar)},
		{"loads", "E12: worst per-node loads (bandwidth honesty)", parTabler(RunLoadViolationPar)},
		{"dynamicdht", "E13: spreading over a churning DHT", parTabler(RunDynamicDHTPar)},
		{"live", "sharded message runtime: scale sweep + latency/loss sensitivity", obsTabler(RunLiveScaled)},
		{"async", "sync-vs-async spread curves on exponential peer clocks", obsTabler(RunAsyncCompare)},
		{"topology", "graph-constrained spreader/stifler spreading: final size vs alpha", obsTabler(RunTopologySpread)},
		{"consensus", "conflicting-rumor consensus: rounds to 90% agreement vs K x seeding x merge rule", obsTabler(RunConsensusSweep)},
		{"protocols", "every protocol of the spec table via the unified run.Run entrypoint", obsTabler(RunProtocols)},
	}
}
