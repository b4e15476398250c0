package main

import (
	"fmt"

	"repro"
	"repro/internal/graph"
)

// inputs is everything one workload hands the program: the spec repro.Run
// executes, plus the shapes the per-layer probes reuse (the workload's
// bandwidth profile and graph, where it has one).
type inputs struct {
	spec    repro.Spec
	profile repro.Profile
	graph   *repro.Graph
	// check holds the workload's own correctness conditions on a finished
	// spread, beyond the ones every workload shares (see checkReport).
	check func(rep repro.Report) error
}

// workload is one named input set. n is sized so that one untraced run fits
// the time the driver gives it on two cores (see README.md); quickN is the
// size the tests use.
type workload struct {
	name, why string
	n, quickN int
	// build makes the inputs from the seed; its duration is setup_s. The
	// tracer (nil when tracing is off) records one span per input built.
	build func(n int, seed uint64, tr *tracer) (inputs, error)
}

var workloads = []workload{
	{
		name: "dating-het",
		why:  "the paper's protocol on a bimodal profile: all time is core rounds on the keyed exch path plus rng.Derive; live, async and graph do nothing",
		n:    150_000, quickN: 2_000,
		build: func(n int, _ uint64, tr *tracer) (inputs, error) {
			p, sel, err := hetProfile(n, tr)
			if err != nil {
				return inputs{}, err
			}
			return inputs{
				spec:    repro.RumorConfig{Algorithm: repro.Dating, Profile: p, Selector: sel},
				profile: p,
				check: func(rep repro.Report) error {
					if err := allInformed(rep, n); err != nil {
						return err
					}
					// The paper's capacity property: no node ever serves
					// more than its bandwidth (8 for the rich class).
					if rep.MaxInLoad > 8 || rep.MaxOutLoad > 8 {
						return fmt.Errorf("load %d in / %d out exceeds the profile's bandwidth 8", rep.MaxInLoad, rep.MaxOutLoad)
					}
					return nil
				},
			}, nil
		},
	},
	{
		name: "live-sync",
		why:  "message-dense live runtime: every peer has mail every round, so time is deliver/route and Message copies through the concat exch path",
		n:    60_000, quickN: 2_000,
		build: func(n int, _ uint64, tr *tracer) (inputs, error) {
			var p repro.Profile
			tr.do("bandwidth.profile", func() { p = repro.UnitBandwidth(n) })
			sel, err := uniformSelector(n, tr)
			if err != nil {
				return inputs{}, err
			}
			return inputs{
				spec:    repro.LiveConfig{Profile: p, Selector: sel},
				profile: p,
				check: func(rep repro.Report) error {
					if err := allInformed(rep, n); err != nil {
						return err
					}
					if rep.Dropped != 0 || rep.Clamped != 0 {
						return fmt.Errorf("sync net dropped %d and clamped %d messages", rep.Dropped, rep.Clamped)
					}
					return nil
				},
			}, nil
		},
	},
	{
		name: "topology-ba",
		why:  "message-sparse live runtime on a Barabasi-Albert graph: about 0.1 messages per peer-step, so the step loop over idle peers dominates; only workload where graph works",
		n:    350_000, quickN: 2_000,
		build: func(n int, seed uint64, tr *tracer) (inputs, error) {
			var g *repro.Graph
			var err error
			tr.do("graph.generate", func() { g, err = repro.BarabasiAlbertGraph(n, 3, seed) })
			if err != nil {
				return inputs{}, err
			}
			tr.do("graph.sampler", func() { _, err = graph.NewUniformNeighbors(g) })
			if err != nil {
				return inputs{}, err
			}
			validated := false
			return inputs{
				spec:  repro.TopologyConfig{Graph: g, Alpha: 0.25},
				graph: g,
				check: func(rep repro.Report) error {
					if !validated { // once: the graph does not change between spreads
						validated = true
						if err := g.Validate(); err != nil {
							return err
						}
					}
					if spread := float64(last(rep.Trajectory)) / float64(n); spread < 0.5 || spread > 1 {
						return fmt.Errorf("final spread %.3f outside [0.5, 1]", spread)
					}
					return nil
				},
			}, nil
		},
	},
	{
		name: "async-het",
		why:  "only workload on the async calendar runtime: one rng.Derive per firing, heterogeneous clock rates so shards are unevenly loaded; core and graph do nothing",
		n:    200_000, quickN: 2_000,
		build: func(n int, _ uint64, tr *tracer) (inputs, error) {
			p, sel, err := hetProfile(n, tr)
			if err != nil {
				return inputs{}, err
			}
			return inputs{
				spec:    repro.AsyncConfig{Profile: p, Selector: sel},
				profile: p,
				check:   func(rep repro.Report) error { return allInformed(rep, n) },
			}, nil
		},
	},
}

// hetProfile is the heterogeneous shape dating-het and async-het share: a
// tenth of the peers have bandwidth 8, the rest 1.
func hetProfile(n int, tr *tracer) (p repro.Profile, sel repro.Selector, err error) {
	tr.do("bandwidth.profile", func() { p, err = repro.Bimodal(n, n/10, 8, 1) })
	if err != nil {
		return p, nil, err
	}
	sel, err = uniformSelector(n, tr)
	return p, sel, err
}

func uniformSelector(n int, tr *tracer) (sel repro.Selector, err error) {
	tr.do("core.selector", func() { sel, err = repro.Uniform(n) })
	return sel, err
}

func allInformed(rep repro.Report, n int) error {
	if got := last(rep.Trajectory); got != n {
		return fmt.Errorf("%d of %d peers informed at the end", got, n)
	}
	return nil
}

func last(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}
