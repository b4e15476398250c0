package main

// metricDef names one reported number. The tables below are the benchmark's
// vocabulary; BENCHMARK.json repeats them for the driver and a test keeps
// the two in step.
type metricDef struct {
	name, unit string
	higher     bool // better when higher
	// bound is the share by which an end-to-end metric may get worse before
	// a change counts as a regression; slack is an absolute allowance on
	// top, for a metric so small that a share of it is below timer noise.
	bound, slack float64
}

// endToEnd is what a researcher running one spread to completion pays:
// host seconds and memory, and the simulated rounds the protocol needed.
// failed_share, the eighth end-to-end number, is printed with them but is
// not in this table: it must be 0, and the driver reads it from the
// attempted and failed counts of the result line. README.md says why the
// bounds are as wide as they are.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", bound: 0.25},
	{name: "wall_1shard_s", unit: "s", bound: 0.25},
	{name: "msgs_per_s", unit: "msg/s", higher: true, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", bound: 0.15},
	{name: "alloc_mb", unit: "MB", bound: 0.10},
	{name: "setup_s", unit: "s", bound: 0.25, slack: 0.05},
	{name: "rounds", unit: "rounds", bound: 0.25},
}

// perLayer is one cost per unit of work at each level of the stack, named
// after the package it measures. README.md says how each is taken and which
// end-to-end metric it should move on which workload.
var perLayer = []metricDef{
	{name: "rng.derive_ns", unit: "ns/call"},
	{name: "rng.intn_ns", unit: "ns/draw"},
	{name: "exch.record_ns", unit: "ns/key"},
	{name: "exch.prefix_ns", unit: "ns/call"},
	{name: "exch.fill_ns", unit: "ns/key"},
	{name: "exch.flush_ns", unit: "ns/value"},
	{name: "core.round_ns_per_request", unit: "ns/request"},
	{name: "core.dates_per_request", unit: "ratio", higher: true},
	{name: "core.round_alloc_b_per_request", unit: "B/request"},
	{name: "core.round_busy_s", unit: "s"},
	{name: "core.coordinator_s", unit: "s"},
	{name: "live.noop_step_ns", unit: "ns/peer-step"},
	{name: "live.msg_ns", unit: "ns/message"},
	{name: "live.msg_ns_geom", unit: "ns/message"},
	{name: "live.msg_alloc_b", unit: "B/message"},
	{name: "live.deliver_busy_s", unit: "s"},
	{name: "live.step_busy_s", unit: "s"},
	{name: "live.route_busy_s", unit: "s"},
	{name: "live.wait_s", unit: "s"},
	{name: "async.firing_ns", unit: "ns/firing"},
	{name: "async.msg_ns", unit: "ns/message"},
	{name: "async.deliver_busy_s", unit: "s"},
	{name: "async.step_busy_s", unit: "s"},
	{name: "async.route_busy_s", unit: "s"},
	{name: "async.wait_s", unit: "s"},
	{name: "graph.ba_gen_ns_per_edge", unit: "ns/edge"},
	{name: "graph.pick_ns", unit: "ns/pick"},
	{name: "graph.csr_b_per_edge", unit: "B/edge"},
	{name: "gossip.topo_step_s", unit: "s"},
	{name: "gossip.msgs_per_peer_step", unit: "ratio", higher: true},
	{name: "par.fanout_ns", unit: "ns/call"},
	{name: "run.shard_speedup", unit: "ratio", higher: true},
	{name: "obs.trace_overhead", unit: "ratio"},
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a run prints: one JSON object the driver reads.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// worseBy returns how much worse than a the value b is, as a share of a, in
// the metric's own direction; negative when b is better.
func (d metricDef) worseBy(a, b float64) float64 {
	if d.higher {
		return (a - b) / a
	}
	return (b - a) / a
}
