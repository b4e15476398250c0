package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/exch"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// probeShape is the workload's shape the probes run at: peer count, shard
// count, seed, and the bandwidth profile (unit bandwidth when the workload
// has none).
type probeShape struct {
	n, workers int
	seed       uint64
	profile    repro.Profile
}

// Probe sizes: small kernels are repeated and their median kept; the
// runtimes run a fixed number of rounds once.
const (
	kernelReps    = 5
	prefixCalls   = 1000
	fanoutCalls   = 20000
	coreRounds    = 5
	runtimeRounds = 10
)

// sink keeps the compiler from dropping a probe's loop.
var sink uint64

// runProbes times direct calls into each layer's exported functions and
// divides by the unit count. Every probe sits in a harness span named after
// the first metric it fills.
func runProbes(vals map[string]float64, sh probeShape, tr *tracer) error {
	if sh.profile.N() == 0 {
		sh.profile = repro.UnitBandwidth(sh.n)
	}
	probes := []struct {
		metric string
		run    func(map[string]float64, probeShape) error
	}{
		{"rng.derive_ns", probeRng},
		{"exch.record_ns", probeExchKeyed},
		{"exch.flush_ns", probeExchConcat},
		{"core.round_ns_per_request", probeCore},
		{"live.noop_step_ns", probeLive},
		{"async.firing_ns", probeAsync},
		{"graph.ba_gen_ns_per_edge", probeGraph},
		{"par.fanout_ns", probePar},
	}
	for _, p := range probes {
		var err error
		tr.do("probe."+p.metric, func() { err = p.run(vals, sh) })
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.metric, err)
		}
	}
	return nil
}

// medianPerUnit times f kernelReps times, after one discarded call that
// grows the buffers, and returns the median in nanoseconds per unit.
func medianPerUnit(units int, f func()) float64 {
	f()
	xs := make([]float64, kernelReps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(units)
	}
	return stats.Summarize(xs).Median
}

func probeRng(vals map[string]float64, sh probeShape) error {
	vals["rng.derive_ns"] = medianPerUnit(sh.n, func() {
		for i := 0; i < sh.n; i++ {
			sink ^= rng.Derive(sh.seed, 1, uint64(i))
		}
	})
	s := rng.New(sh.seed)
	vals["rng.intn_ns"] = medianPerUnit(sh.n, func() {
		for i := 0; i < sh.n; i++ {
			sink += uint64(s.Intn(sh.n))
		}
	})
	return nil
}

// probeExchKeyed is the keyed path of the dating engine and the live
// deliver phase: P workers record n uniform int32 keys, the serial prefix,
// then P owners counting-sort their ranges.
func probeExchKeyed(vals map[string]float64, sh probeShape) error {
	n, p := sh.n, sh.workers
	s := rng.New(sh.seed)
	keys := make([]int32, n)
	for i := range keys {
		keys[i] = int32(s.Intn(n))
	}
	part := exch.Partition{N: n, Parts: p}
	var ex exch.Exchange[int32]
	ex.Reset(p, part)
	off, out := make([]int32, n+1), make([]int32, n)
	record := func() {
		par.Do(p, func(w int) {
			ex.ClearWorker(w)
			lo, hi := part.Range(w)
			for i := lo; i < hi; i++ {
				ex.Record(w, keys[i], int32(i))
			}
		})
	}
	vals["exch.record_ns"] = medianPerUnit(n, record)
	vals["exch.prefix_ns"] = medianPerUnit(prefixCalls, func() {
		for i := 0; i < prefixCalls; i++ {
			sink += uint64(ex.Prefix())
		}
	})
	vals["exch.fill_ns"] = medianPerUnit(n, func() {
		par.Do(p, func(o int) { ex.Fill(o, off, out) })
	})
	return nil
}

// probeExchConcat is the concat path of the live and async route phases
// under a one-round delay: P workers append n Messages to the delay's
// chunks, the serial base pass, then P workers flush into the slot.
func probeExchConcat(vals map[string]float64, sh probeShape) error {
	n, p := sh.n, sh.workers
	const ring, delay = 2, 1
	part := exch.Partition{N: n, Parts: p}
	var ex exch.Exchange[simnet.Message]
	ex.Reset(p, exch.Partition{N: ring, Parts: ring})
	slot := make([]simnet.Message, n)
	vals["exch.flush_ns"] = medianPerUnit(n, func() {
		par.Do(p, func(w int) {
			lo, hi := part.Range(w)
			for i := lo; i < hi; i++ {
				ex.RecordTo(w, delay, simnet.Message{From: i, To: n - 1 - i})
			}
		})
		ex.SetBase(delay, 0)
		par.Do(p, func(w int) { ex.Flush(w, delay, slot) })
	})
	return nil
}

// probeCore runs steady-state dating rounds on the workload's profile.
func probeCore(vals map[string]float64, sh probeShape) error {
	sel, err := core.NewUniformSelector(sh.n)
	if err != nil {
		return err
	}
	svc, err := core.NewService(sh.profile, sel)
	if err != nil {
		return err
	}
	if _, err := svc.RunRoundSeeded(sh.seed, sh.workers); err != nil { // grows the scratch
		return err
	}
	requests := float64(coreRounds * sh.profile.M())
	dates := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for r := 1; r <= coreRounds; r++ {
		res, err := svc.RunRoundSeeded(sh.seed+uint64(r), sh.workers)
		if err != nil {
			return err
		}
		dates += len(res.Dates)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	vals["core.round_ns_per_request"] = float64(elapsed.Nanoseconds()) / requests
	vals["core.dates_per_request"] = float64(dates) / requests
	vals["core.round_alloc_b_per_request"] = float64(after.TotalAlloc-before.TotalAlloc) / requests
	return nil
}

// liveRun builds a live runtime over the shape and runs it; it returns the
// time and allocation of Run alone and the traffic it moved.
func liveRun(sh probeShape, net live.NetModel, step live.StepFunc) (elapsed time.Duration, allocB uint64, st simnet.Stats, err error) {
	rt, err := live.New(live.Config{N: sh.n, Seed: sh.seed, Step: step, Shards: sh.workers, Net: net})
	if err != nil {
		return 0, 0, st, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	st = rt.Run(runtimeRounds)
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&after)
	return elapsed, after.TotalAlloc - before.TotalAlloc, st, nil
}

func probeLive(vals map[string]float64, sh probeShape) error {
	noop := func(int, int, []simnet.Message, *rng.Stream, func(simnet.Message)) {}
	oneMessage := func(_, _ int, _ []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
		emit(simnet.Message{To: s.Intn(sh.n)})
	}
	elapsed, _, _, err := liveRun(sh, nil, noop)
	if err != nil {
		return err
	}
	vals["live.noop_step_ns"] = float64(elapsed.Nanoseconds()) / float64(sh.n*runtimeRounds)

	elapsed, allocB, st, err := liveRun(sh, nil, oneMessage)
	if err != nil {
		return err
	}
	vals["live.msg_ns"] = float64(elapsed.Nanoseconds()) / float64(st.Sent)
	vals["live.msg_alloc_b"] = float64(allocB) / float64(st.Sent)

	// The same route code used the other way: several delays and one
	// network stream per message.
	elapsed, _, st, err = liveRun(sh, live.GeomLatency{P: 0.5, Cap: 8}, oneMessage)
	if err != nil {
		return err
	}
	vals["live.msg_ns_geom"] = float64(elapsed.Nanoseconds()) / float64(st.Sent)
	return nil
}

func probeAsync(vals map[string]float64, sh probeShape) error {
	run := func(fire async.FireFunc) (time.Duration, *async.Runtime, error) {
		rt, err := async.New(async.Config{
			N: sh.n, Seed: sh.seed, Shards: sh.workers, Fire: fire,
			Recv: func(int, simnet.Message, func(simnet.Message)) {},
		})
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		rt.RunBuckets(runtimeRounds)
		return time.Since(t0), rt, nil
	}
	elapsed, rt, err := run(func(int, int, float64, *rng.Stream, func(simnet.Message)) {})
	if err != nil {
		return err
	}
	vals["async.firing_ns"] = float64(elapsed.Nanoseconds()) / float64(rt.Fired())

	elapsed, rt, err = run(func(_, _ int, _ float64, s *rng.Stream, emit func(simnet.Message)) {
		emit(simnet.Message{To: s.Intn(sh.n)})
	})
	if err != nil {
		return err
	}
	vals["async.msg_ns"] = float64(elapsed.Nanoseconds()) / float64(rt.Stats().Sent)
	return nil
}

func probeGraph(vals map[string]float64, sh probeShape) error {
	t0 := time.Now()
	g, err := graph.BarabasiAlbert(sh.n, 3, sh.seed)
	if err != nil {
		return err
	}
	vals["graph.ba_gen_ns_per_edge"] = float64(time.Since(t0).Nanoseconds()) / float64(g.Edges())
	// Computed from the slice lengths, not measured: 4-byte offsets and
	// both directions of every edge.
	vals["graph.csr_b_per_edge"] = float64(4*(len(g.Off)+len(g.Adj))) / float64(g.Edges())

	sampler, err := graph.NewUniformNeighbors(g)
	if err != nil {
		return err
	}
	s := rng.New(sh.seed)
	vals["graph.pick_ns"] = medianPerUnit(sh.n, func() {
		for i := 0; i < sh.n; i++ {
			sink += uint64(sampler.Pick(i, s))
		}
	})
	return nil
}

func probePar(vals map[string]float64, sh probeShape) error {
	vals["par.fanout_ns"] = medianPerUnit(fanoutCalls, func() {
		for i := 0; i < fanoutCalls; i++ {
			par.Do(sh.workers, func(int) {})
		}
	})
	return nil
}
