package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// config is one run's settings.
type config struct {
	seed uint64
	// seconds is how long the timed spreads may go on: one pass over the
	// run seeds always runs, and another follows while it fits.
	seconds float64
	trace   bool
	quick   bool
	workers int    // P, the shard count of the parallel spreads
	outDir  string // where a traced run writes its trace file
}

// plan is the repetition counts of a run. Untraced: the least number of
// input builds, and the number of run seeds; every run seed is spread once
// at P shards and once at one shard. Traced: the number of untraced and
// traced spreads at P shards. One discarded warm-up spread always comes
// first.
type plan struct {
	builds, seeds, tracedPairs int
	// setupFor is how long an untraced run keeps rebuilding its inputs
	// beyond builds, so that a set-up of a few milliseconds still gets a
	// steady median.
	setupFor time.Duration
}

func (c config) plan() plan {
	if c.quick {
		return plan{builds: 1, seeds: 1, tracedPairs: 1}
	}
	return plan{builds: 3, seeds: 8, tracedPairs: 3, setupFor: time.Second}
}

// runSeeds derives the seeds of a run's spreads from the workload seed. How
// many rounds a spread needs depends on its seed (the last few uninformed
// peers are a matter of luck: 24 to 30 rounds on dating-het), and wall time
// follows the rounds, so one seed per run would make every metric swing by
// that much from one workload seed to the next. The median over several
// seeds does not.
func (c config) runSeeds() []uint64 {
	seeds := make([]uint64, c.plan().seeds)
	for i := range seeds {
		seeds[i] = rng.Derive(c.seed, uint64(i))
	}
	return seeds
}

func (c config) size(wl workload) int {
	if c.quick {
		return wl.quickN
	}
	return wl.n
}

// simulated is what a spread computed, as opposed to what it cost.
type simulated struct {
	seed     uint64
	digest   string
	rounds   int
	messages int64
}

// judge applies the correctness checks to every spread of a run and keeps
// the simulated results of each run seed's first spread, which every later
// spread of that seed must repeat.
type judge struct {
	spec      repro.Spec
	check     func(repro.Report) error
	first     []simulated
	attempted int
	failures  []string
}

func (j *judge) firstOf(seed uint64) *simulated {
	for i := range j.first {
		if j.first[i].seed == seed {
			return &j.first[i]
		}
	}
	return nil
}

func (j *judge) verdict(rep repro.Report) error {
	digest := sim.TrajectoryDigest(rep.Trajectory)
	first := j.firstOf(rep.Seed)
	if first == nil {
		j.first = append(j.first, simulated{seed: rep.Seed, digest: digest, rounds: rep.Rounds, messages: rep.Messages})
	}
	if !rep.Completed {
		return fmt.Errorf("did not complete within %d rounds", rep.Rounds)
	}
	for i := 1; i < len(rep.Trajectory); i++ {
		if rep.Trajectory[i] < rep.Trajectory[i-1] {
			return fmt.Errorf("trajectory falls from %d to %d at round %d", rep.Trajectory[i-1], rep.Trajectory[i], i+1)
		}
	}
	// The bit-identity contract: every spread of a run seed, at every shard
	// count, traced or not, spreads identically round for round.
	if first != nil && digest != first.digest {
		return fmt.Errorf("trajectory digest %s at %d shards differs from %s, the first spread of seed %d", digest, rep.Workers, first.digest, rep.Seed)
	}
	return j.check(rep)
}

func (j *judge) outcome(vals map[string]float64, defs []metricDef) outcome {
	oc := outcome{
		Correct:   len(j.failures) == 0,
		Attempted: j.attempted,
		Failed:    len(j.failures),
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no sample: every spread failed, and JSON has no NaN
		}
		oc.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return oc
}

// sample is one measured spread.
type sample struct {
	wall    float64 // seconds
	allocMB float64 // MemStats.TotalAlloc delta
	rep     repro.Report
}

// medianWall returns the sample with the median wall time (the upper one of
// an even count).
func medianWall(xs []sample) sample {
	sort.Slice(xs, func(a, b int) bool { return xs[a].wall < xs[b].wall })
	return xs[len(xs)/2]
}

const mib = 1 << 20

// spread runs one full spread of the spec under the clock and the
// allocation counter, with an observer attached when o is not nil, and
// judges it. Before the clock starts all free memory goes back to the
// system, so that every spread pays for its pages as a fresh process would
// and none depends on what the previous one left mapped.
func (j *judge) spread(seed uint64, workers int, o *repro.Observer) sample {
	opts := []repro.RunOption{repro.WithSeed(seed), repro.WithWorkers(workers)}
	if o != nil {
		opts = append(opts, repro.WithObserver(o))
	}
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	rep, err := repro.Run(j.spec, opts...)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	j.attempted++
	if err == nil {
		err = j.verdict(rep)
	}
	if err != nil {
		j.failures = append(j.failures, fmt.Sprintf("spread %d: %v", j.attempted, err))
	}
	return sample{wall: wall, allocMB: float64(after.TotalAlloc-before.TotalAlloc) / mib, rep: rep}
}

// maxBuilds caps the input builds of an untraced run.
const maxBuilds = 200

// measureEndToEnd is an untraced run of one workload: build the inputs
// several times, one warm-up spread, then every run seed spread at P shards
// and at one shard, pass after pass while another pass fits into the time.
func measureEndToEnd(cfg config, wl workload, out io.Writer) (outcome, error) {
	n, pl := cfg.size(wl), cfg.plan()
	printManifest(out, cfg, wl)

	var in inputs
	var setup []float64
	for spent := time.Duration(0); len(setup) < pl.builds || (spent < pl.setupFor && len(setup) < maxBuilds); {
		debug.FreeOSMemory() // each build starts from returned memory, like each spread
		t0 := time.Now()
		var err error
		if in, err = wl.build(n, cfg.seed, nil); err != nil {
			return outcome{}, fmt.Errorf("%s: building inputs: %w", wl.name, err)
		}
		d := time.Since(t0)
		spent += d
		setup = append(setup, d.Seconds())
	}

	j := &judge{spec: in.spec, check: in.check}
	seeds := cfg.runSeeds()
	j.spread(seeds[0], cfg.workers, nil) // warm-up, time discarded

	budget := time.Duration(cfg.seconds * float64(time.Second))
	var wallP, wall1, alloc, rate []float64
	start, pass := time.Now(), time.Duration(0)
	for len(wallP) == 0 || time.Since(start)+pass <= budget {
		t0 := time.Now()
		for _, seed := range seeds {
			s := j.spread(seed, cfg.workers, nil)
			wallP, alloc = append(wallP, s.wall), append(alloc, s.allocMB)
			rate = append(rate, float64(s.rep.Messages)/s.wall)
			wall1 = append(wall1, j.spread(seed, 1, nil).wall)
		}
		pass = time.Since(t0)
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return outcome{}, fmt.Errorf("getrusage: %w", err)
	}
	var rounds []float64
	for _, f := range j.first {
		rounds = append(rounds, float64(f.rounds))
	}
	samples := map[string][]float64{
		"wall_s": wallP, "wall_1shard_s": wall1, "msgs_per_s": rate, "alloc_mb": alloc, "setup_s": setup, "rounds": rounds,
	}
	vals := map[string]float64{"peak_rss_mb": float64(ru.Maxrss) / 1024} // Linux counts KiB
	for name, xs := range samples {
		vals[name] = stats.Summarize(xs).Median
	}

	j.printSimulated(out)
	for _, d := range endToEnd {
		note := ""
		if xs, ok := samples[d.name]; ok {
			sum := stats.Summarize(xs)
			note = fmt.Sprintf("  median of %d (min %.6g, max %.6g)", sum.N, sum.Min, sum.Max)
		}
		printMetric(out, d, vals[d.name], note)
	}
	fmt.Fprintf(out, "  %-32s %14.6g %-12s  %d failed of %d spreads\n", "failed_share", float64(len(j.failures))/float64(j.attempted), "fraction", len(j.failures), j.attempted)
	fmt.Fprintln(out, "  (medians; with this few samples no tail percentile is reported)")
	j.printFailures(out)
	return j.outcome(vals, endToEnd), nil
}

// measureLayers is a traced run of one workload, all on the first run seed:
// untraced spreads for reference, spreads with an observer attached, then
// the per-layer probes at the workload's shape, all inside harness spans
// written out at the end.
func measureLayers(cfg config, wl workload, out io.Writer) (outcome, error) {
	n, seed := cfg.size(wl), cfg.runSeeds()[0]
	printManifest(out, cfg, wl)
	tr := newTracer(wl.name)
	j := &judge{}
	vals := map[string]float64{}
	var err error
	tr.do("workload", func() {
		var in inputs
		tr.do("setup", func() { in, err = wl.build(n, cfg.seed, tr) })
		if err != nil {
			return
		}
		j.spec, j.check = in.spec, in.check
		// Untraced and traced spreads alternate, and the one with the median
		// wall time of each kind is kept: two shards on two cores make a
		// single spread's time move by a fifth.
		var plains, traceds []sample
		tr.do("run.warmup", func() { j.spread(seed, cfg.workers, nil) })
		for i := 0; i < cfg.plan().tracedPairs; i++ {
			tr.do("run.untraced", func() { plains = append(plains, j.spread(seed, cfg.workers, nil)) })
			tr.do("run.Run", func() { traceds = append(traceds, j.spread(seed, cfg.workers, repro.NewObserver())) })
		}
		plain, traced := medianWall(plains), medianWall(traceds)
		var one sample
		tr.do("run.untraced_1shard", func() { one = j.spread(seed, 1, nil) })
		vals["run.shard_speedup"] = one.wall / plain.wall
		vals["obs.trace_overhead"] = traced.wall/plain.wall - 1
		steps := phaseTimes(vals, traced)
		vals["gossip.msgs_per_peer_step"] = float64(traced.rep.Messages) / (float64(n) * float64(steps))

		if err = runProbes(vals, probeShape{n: n, workers: cfg.workers, seed: cfg.seed, profile: in.profile}, tr); err != nil {
			return
		}
		if in.graph != nil {
			// What is left of the step phase once the runtime's own cost of
			// stepping an idle peer is taken out: the protocol's step function.
			idle := vals["live.noop_step_ns"] * 1e-9 * float64(n) * float64(steps) / float64(cfg.workers)
			vals["gossip.topo_step_s"] = vals["live.step_busy_s"] - idle
		}
	})
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", wl.name, err)
	}
	path := filepath.Join(cfg.outDir, "trace-"+wl.name+".json")
	if err := tr.writeFile(path); err != nil {
		return outcome{}, fmt.Errorf("writing trace: %w", err)
	}

	j.printSimulated(out)
	for _, d := range perLayer {
		printMetric(out, d, vals[d.name], "")
	}
	fmt.Fprintf(out, "  (P=%d; traced and untraced walls are medians of %d, probes single runs; harness spans in %s)\n", cfg.workers, cfg.plan().tracedPairs, path)
	j.printFailures(out)
	return j.outcome(vals, perLayer), nil
}

// phaseTimes turns the observer's phase totals of a traced spread into the
// per-layer busy and waiting times, and returns how many times the runtime
// stepped every peer (rounds of the live runtime, buckets of the async one,
// dating rounds where no runtime ran). A layer the workload does not use
// keeps its zero.
func phaseTimes(vals map[string]float64, traced sample) (steps int) {
	steps = traced.rep.Rounds
	if traced.rep.Metrics == nil {
		return steps
	}
	busy := map[string]float64{} // layer -> sum of its phases' per-shard busy time
	for _, p := range traced.rep.Metrics.Phases {
		perShard := p.TotalSec / float64(p.Shards)
		switch {
		case p.Track == "rumor" && p.Phase == "round":
			vals["core.round_busy_s"] = perShard
			busy["core"] += perShard
		case p.Track == "live" || p.Track == "async":
			vals[p.Track+"."+p.Phase+"_busy_s"] = perShard
			busy[p.Track] += perShard
			if p.Phase == "step" {
				steps = p.Spans / p.Shards
			}
		}
	}
	// Whatever part of the traced wall time no span of the layer covers:
	// barrier waits, shard imbalance and the coordinator's serial loop.
	for layer, name := range map[string]string{"core": "core.coordinator_s", "live": "live.wait_s", "async": "async.wait_s"} {
		if b, ok := busy[layer]; ok {
			vals[name] = traced.wall - b
		}
	}
	return steps
}

// printSimulated prints what each run seed computed, so that parent and
// change can be compared exactly.
func (j *judge) printSimulated(out io.Writer) {
	for _, f := range j.first {
		fmt.Fprintf(out, "  simulated: run seed %d  digest %s  rounds %d  messages %d\n", f.seed, f.digest, f.rounds, f.messages)
	}
}

func (j *judge) printFailures(out io.Writer) {
	for _, f := range j.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

func printMetric(out io.Writer, d metricDef, v float64, note string) {
	fmt.Fprintf(out, "  %-32s %14.6g %-12s%s\n", d.name, v, d.unit, note)
}
