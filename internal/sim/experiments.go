package sim

import (
	"fmt"
	"math"

	"repro/internal/bandwidth"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/storage"
)

// --- E3: fraction versus load (Lemmas 1 and 2) ---------------------------

// AlphaRow is one m/n value of experiment E3.
type AlphaRow struct {
	Load     int // requests of each type per node (m/n)
	Fraction float64
	Std      float64
}

// AlphaResult is the E3 outcome: E[X]/m as a function of m/n.
type AlphaResult struct{ Rows []AlphaRow }

// Table renders E3.
func (r AlphaResult) Table() *stats.Table {
	t := stats.NewTable("E3 — fraction of m arranged vs per-node load (uniform selection)",
		"m/n", "fraction", "std")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Load), fmt.Sprintf("%.4f", row.Fraction), fmt.Sprintf("%.4f", row.Std))
	}
	return t
}

// RunAlphaVsLoad measures the arranged fraction as bandwidth per node grows,
// validating the paper's remark that E[X]/m increases with m/n. Each load
// is one harness job of seeded rounds.
func RunAlphaVsLoad(scale Scale, seed uint64, workers int, _ *obs.Observer) (AlphaResult, error) {
	n, rounds := 1000, 300
	if scale == ScalePaper {
		rounds = 3000
	}
	loads := []int{1, 2, 4, 8}
	accs, err := sweep(len(loads), 1, workers, seed, domainAlpha, func(c, _ int, jobSeed uint64, b *par.Budget) (stats.Accumulator, error) {
		sel, err := core.NewUniformSelector(n)
		if err != nil {
			return stats.Accumulator{}, err
		}
		svc, err := core.NewService(bandwidth.Homogeneous(n, loads[c]), sel)
		if err != nil {
			return stats.Accumulator{}, err
		}
		return fractions(svc, rounds, svc.M(), jobSeed, b)
	})
	if err != nil {
		return AlphaResult{}, err
	}
	var res AlphaResult
	for c, acc := range accs {
		res.Rows = append(res.Rows, AlphaRow{Load: loads[c], Fraction: acc.Mean(), Std: acc.Std()})
	}
	return res, nil
}

// --- E4: selection-distribution ablation (the worst-case conjecture) -----

// DistRow is one distribution of experiment E4.
type DistRow struct {
	Name     string
	Fraction float64
	Std      float64
}

// DistResult is the E4 outcome.
type DistResult struct{ Rows []DistRow }

// Table renders E4.
func (r DistResult) Table() *stats.Table {
	t := stats.NewTable("E4 — arranged fraction by selection distribution (n = m = 1000)",
		"distribution", "fraction", "std")
	for _, row := range r.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%.4f", row.Fraction), fmt.Sprintf("%.4f", row.Std))
	}
	return t
}

// RunDistributionAblation compares the arranged fraction across selection
// distributions, testing the paper's conjecture that uniform is the worst
// case: every skewed distribution should arrange at least as many dates.
// Each distribution is one harness job of seeded rounds; the jobs share the
// read-only selectors.
func RunDistributionAblation(scale Scale, seed uint64, workers int, _ *obs.Observer) (DistResult, error) {
	n, rounds := 1000, 200
	if scale == ScalePaper {
		rounds = 2000
	}

	type namedSel struct {
		name string
		sel  core.Selector
	}
	var sels []namedSel

	uni, err := core.NewUniformSelector(n)
	if err != nil {
		return DistResult{}, err
	}
	sels = append(sels, namedSel{"uniform", uni})

	ring, err := overlay.NewRing(n, rng.New(rng.Derive(seed, domainAblation)))
	if err != nil {
		return DistResult{}, err
	}
	rs, err := core.NewRingSelector(ring)
	if err != nil {
		return DistResult{}, err
	}
	sels = append(sels, namedSel{"dht-intervals", rs})

	for _, exp := range []float64{0.5, 1.0, 1.5} {
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Pow(float64(i+1), -exp)
		}
		ws, err := core.NewWeightedSelector(w)
		if err != nil {
			return DistResult{}, err
		}
		sels = append(sels, namedSel{fmt.Sprintf("zipf-%.1f", exp), ws})
	}

	// Two-point mass: one hub attracts half of all requests.
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	w[0] = float64(n - 1)
	hub, err := core.NewWeightedSelector(w)
	if err != nil {
		return DistResult{}, err
	}
	sels = append(sels, namedSel{"hub-half", hub})

	profile := bandwidth.Homogeneous(n, 1)
	accs, err := sweep(len(sels), 1, workers, seed, domainAblation, func(c, _ int, jobSeed uint64, b *par.Budget) (stats.Accumulator, error) {
		svc, err := core.NewService(profile, sels[c].sel)
		if err != nil {
			return stats.Accumulator{}, err
		}
		return fractions(svc, rounds, n, jobSeed, b)
	})
	if err != nil {
		return DistResult{}, err
	}
	var res DistResult
	for c, acc := range accs {
		res.Rows = append(res.Rows, DistRow{Name: sels[c].name, Fraction: acc.Mean(), Std: acc.Std()})
	}
	return res, nil
}

// --- E5: the three phases of Theorem 4 -----------------------------------

// PhasesResult reports the informed-bandwidth growth structure.
type PhasesResult struct {
	N         int
	EndPhase1 float64 // mean round at which I_t reached max(m/n, log n)
	EndPhase2 float64 // mean round at which I_t reached m/2
	EndPhase3 float64 // mean completion round
	ItSample  []int   // one run's I_t trajectory, for inspection
}

// Table renders E5.
func (r PhasesResult) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("E5 — Theorem 4 phase structure (dating, n = %d)", r.N),
		"phase", "ends at round (mean)")
	t.AddRow("1: I_t reaches max(m/n, log n)", fmt.Sprintf("%.1f", r.EndPhase1))
	t.AddRow("2: I_t reaches m/2", fmt.Sprintf("%.1f", r.EndPhase2))
	t.AddRow("3: all nodes informed", fmt.Sprintf("%.1f", r.EndPhase3))
	return t
}

// RunPhases tracks I_t (total outgoing bandwidth of informed nodes) over
// dating-service spreading runs and locates the phase boundaries from the
// proof of Theorem 4. Each repetition is one harness job.
func RunPhases(scale Scale, seed uint64, workers int, o *obs.Observer) (PhasesResult, error) {
	n, reps := 4096, 10
	if scale == ScalePaper {
		reps = 100
	}
	its, err := sweep(1, reps, workers, seed, domainPhases, func(_, _ int, jobSeed uint64, b *par.Budget) ([]int, error) {
		rep, err := runJob(gossip.Config{Algorithm: gossip.Dating, N: n, Source: 0}, jobSeed, b, o)
		if err != nil {
			return nil, err
		}
		if !rep.Completed {
			return nil, fmt.Errorf("sim: phases run incomplete")
		}
		return rep.Detail.(gossip.Result).ItHistory, nil
	})
	if err != nil {
		return PhasesResult{}, err
	}
	var p1, p2, p3 stats.Accumulator
	for _, it := range its {
		e1, e2, e3 := gossip.PhaseBoundaries(it, n, n)
		p1.Add(float64(e1))
		p2.Add(float64(e2))
		p3.Add(float64(e3))
	}
	return PhasesResult{
		N:         n,
		EndPhase1: p1.Mean(),
		EndPhase2: p2.Mean(),
		EndPhase3: p3.Mean(),
		ItSample:  its[0],
	}, nil
}

// --- E6: hierarchical distribution (Theorem 10) --------------------------

// HierRow is one n-value of experiment E6.
type HierRow struct {
	N           int
	RichRounds  float64
	TotalRounds float64
}

// HierResult is the E6 outcome.
type HierResult struct{ Rows []HierRow }

// Table renders E6.
func (r HierResult) Table() *stats.Table {
	t := stats.NewTable("E6 — Theorem 10: rich nodes (bandwidth m/n) finish early",
		"n", "rich informed by", "all informed by")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.N), fmt.Sprintf("%.1f", row.RichRounds), fmt.Sprintf("%.1f", row.TotalRounds))
	}
	return t
}

// RunHierarchical runs the Theorem 10 experiment: a bimodal network where
// 10% of nodes have bandwidth 16, spreading from a rich source; rich nodes
// must be fully informed well before the weak tail. Each (n, repetition)
// is one harness job.
func RunHierarchical(scale Scale, seed uint64, workers int, o *obs.Observer) (HierResult, error) {
	ns := []int{512, 2048}
	reps := 8
	if scale == ScalePaper {
		ns = []int{512, 2048, 8192}
		reps = 100
	}
	outs, err := sweep(len(ns), reps, workers, seed, domainHierarchical, func(c, _ int, jobSeed uint64, b *par.Budget) (gossip.HierarchicalResult, error) {
		n := ns[c]
		hr, err := gossip.RunHierarchical(n, n/10, 16, jobSeed, run.WithBudget(b), run.WithObserver(o))
		if err == nil && !hr.Completed {
			err = fmt.Errorf("sim: hierarchical run incomplete at n=%d", n)
		}
		return hr, err
	})
	if err != nil {
		return HierResult{}, err
	}
	var res HierResult
	for c, n := range ns {
		var rich, total stats.Accumulator
		for _, hr := range outs[c*reps : (c+1)*reps] {
			rich.Add(float64(hr.RichRounds))
			total.Add(float64(hr.TotalRounds))
		}
		res.Rows = append(res.Rows, HierRow{N: n, RichRounds: rich.Mean(), TotalRounds: total.Mean()})
	}
	return res, nil
}

// --- E7: pipelining over the DHT (Section 4) -----------------------------

// PipelineRow is one k-value of experiment E7: k dating rounds of the
// handshake over DHT selection, under perfect sync and under a fixed
// latency of one Chord lookup per message.
type PipelineRow struct {
	K         int     // dating rounds
	Naive     int     // network ticks if each round waited out its three latencies
	Ticks     int64   // measured network ticks under the latency, drain included
	SyncDates float64 // dates per dating round under perfect sync
	Dates     float64 // dates per dating round under the latency
}

// PipelineResult is the E7 outcome.
type PipelineResult struct {
	N            int
	ChordHops    float64 // measured average Chord lookup hops
	CDHops       float64 // measured average continuous-discrete hops
	LatencySteps int     // ceil(ChordHops), the per-message latency used
	Rows         []PipelineRow
}

// Table renders E7.
func (r PipelineResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("E7 — pipelined dating over a DHT (n = %d, chord %.1f hops, cd %.1f hops, latency %d ticks)",
			r.N, r.ChordHops, r.CDHops, r.LatencySteps),
		"k rounds", "naive ticks", "measured ticks", "dates/round sync", "dates/round latency")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.K), fmt.Sprint(row.Naive), fmt.Sprint(row.Ticks),
			fmt.Sprintf("%.1f", row.SyncDates), fmt.Sprintf("%.1f", row.Dates))
	}
	return t
}

// RunPipelining measures DHT routing latency L and runs k dating rounds of
// the handshake over ring selection under perfect sync and under
// FixedLatency{L}. The handshake pipelines by construction — a peer
// scatters each round without waiting for the last one's answers — so the
// measured ticks grow by 3 per round, not by the naive 3L, and the rounds
// keep sync's date rate. Each k is one harness job running both networks
// from the job's seed.
func RunPipelining(scale Scale, seed uint64, workers int, o *obs.Observer) (PipelineResult, error) {
	n, samples := 1024, 400
	if scale == ScalePaper {
		n, samples = 16384, 2000
	}
	ring, err := overlay.NewRing(n, rng.New(rng.Derive(seed, domainPipelining)))
	if err != nil {
		return PipelineResult{}, err
	}
	s := rng.New(rng.Derive(seed, domainPipelining, 0))
	chord := ring.AvgLookupHops(s, samples, ring.Lookup)
	cd := ring.AvgLookupHops(s, samples, ring.LookupCD)
	latency := int(math.Ceil(chord))
	sel, err := core.NewRingSelector(ring)
	if err != nil {
		return PipelineResult{}, err
	}
	// handshake runs k dating rounds and returns the network ticks and the
	// dates per dating round.
	handshake := func(k int, net live.NetModel, jobSeed uint64, b *par.Budget) (int64, float64, error) {
		rep, err := run.Run(gossip.HandshakeConfig{Profile: bandwidth.Homogeneous(n, 1), Selector: sel, Rounds: k},
			run.WithSeed(jobSeed), run.WithNet(net), run.WithBudget(b), run.WithObserver(o))
		if err != nil {
			return 0, 0, err
		}
		return rep.Detail.(gossip.LiveResult).Traffic.Rounds, float64(rep.Trajectory[k-1]) / float64(k), nil
	}
	ks := []int{1, 2, 4, 8, 16, 32, 64}
	rows, err := sweep(len(ks), 1, workers, seed, domainPipelining, func(c, _ int, jobSeed uint64, b *par.Budget) (PipelineRow, error) {
		k := ks[c]
		_, syncDates, err := handshake(k, nil, jobSeed, b)
		if err != nil {
			return PipelineRow{}, err
		}
		ticks, dates, err := handshake(k, live.FixedLatency{Rounds: latency}, jobSeed, b)
		return PipelineRow{K: k, Naive: 3*k*latency + 1, Ticks: ticks, SyncDates: syncDates, Dates: dates}, err
	})
	if err != nil {
		return PipelineResult{}, err
	}
	return PipelineResult{N: n, ChordHops: chord, CDHops: cd, LatencySteps: latency, Rows: rows}, nil
}

// --- E8: rumor mongering with network coding (Section 5) -----------------

// MongerRow is one block-count of experiment E8.
type MongerRow struct {
	Blocks     int
	Rounds     float64
	LowerBound int     // information-theoretic minimum (B at unit bandwidth)
	Efficiency float64 // innovative packets / packets sent
}

// MongerResult is the E8 outcome.
type MongerResult struct{ Rows []MongerRow }

// Table renders E8.
func (r MongerResult) Table() *stats.Table {
	t := stats.NewTable("E8 — multi-block broadcast via network coding over the dating service",
		"blocks", "rounds", "lower bound", "innovative fraction")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Blocks), fmt.Sprintf("%.1f", row.Rounds),
			fmt.Sprint(row.LowerBound), fmt.Sprintf("%.3f", row.Efficiency))
	}
	return t
}

// RunMongering broadcasts a B-block message via RLNC over the dating
// service and reports rounds against the B-round lower bound. Each
// (block count, repetition) is one harness job; its seed is also the
// payload's.
func RunMongering(scale Scale, seed uint64, workers int, o *obs.Observer) (MongerResult, error) {
	n, reps := 100, 5
	if scale == ScalePaper {
		n, reps = 500, 30
	}
	blockCounts := []int{8, 32}
	type outcome struct{ rounds, eff float64 }
	outs, err := sweep(len(blockCounts), reps, workers, seed, domainMongering, func(c, _ int, jobSeed uint64, b *par.Budget) (outcome, error) {
		blocks := blockCounts[c]
		rep, err := runJob(coding.MongerConfig{N: n, Blocks: blocks, BlockSize: 64, PayloadSeed: jobSeed}, jobSeed, b, o)
		if err != nil {
			return outcome{}, err
		}
		if !rep.Completed {
			return outcome{}, fmt.Errorf("sim: mongering incomplete (B=%d)", blocks)
		}
		mr := rep.Detail.(coding.MongerResult)
		return outcome{float64(mr.Rounds), float64(mr.Innovative) / float64(run.SumSent(mr.SentHistory))}, nil
	})
	if err != nil {
		return MongerResult{}, err
	}
	var res MongerResult
	for c, blocks := range blockCounts {
		var rounds, eff stats.Accumulator
		for _, out := range outs[c*reps : (c+1)*reps] {
			rounds.Add(out.rounds)
			eff.Add(out.eff)
		}
		res.Rows = append(res.Rows, MongerRow{
			Blocks:     blocks,
			Rounds:     rounds.Mean(),
			LowerBound: blocks,
			Efficiency: eff.Mean(),
		})
	}
	return res, nil
}

// --- E9: spreading under churn (Section 1 dynamics) ----------------------

// ChurnRow is one crash-probability of experiment E9.
type ChurnRow struct {
	CrashProb float64
	Rounds    float64
	Crashed   float64
	Completed int
	Reps      int
}

// ChurnResult is the E9 outcome.
type ChurnResult struct{ Rows []ChurnRow }

// Table renders E9.
func (r ChurnResult) Table() *stats.Table {
	t := stats.NewTable("E9 — dating-service spreading under per-round crashes (n = 1000)",
		"crash prob", "rounds", "nodes crashed", "completed")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.2f", row.CrashProb), fmt.Sprintf("%.1f", row.Rounds),
			fmt.Sprintf("%.0f", row.Crashed), fmt.Sprintf("%d/%d", row.Completed, row.Reps))
	}
	return t
}

// RunChurn verifies that the spreading protocol tolerates node crashes —
// the robustness motivation the paper gives for keeping the protocol
// oblivious. Each (crash probability, repetition) is one harness job.
func RunChurn(scale Scale, seed uint64, workers int, o *obs.Observer) (ChurnResult, error) {
	n, reps := 1000, 10
	if scale == ScalePaper {
		reps = 200
	}
	probs := []float64{0, 0.01, 0.05}
	outs, err := sweep(len(probs), reps, workers, seed, domainChurn, func(c, _ int, jobSeed uint64, b *par.Budget) (run.Report, error) {
		return runJob(gossip.Config{Algorithm: gossip.Dating, N: n, Source: 0, CrashProb: probs[c]}, jobSeed, b, o)
	})
	if err != nil {
		return ChurnResult{}, err
	}
	var res ChurnResult
	for c, p := range probs {
		var rounds, crashed stats.Accumulator
		completed := 0
		for _, rep := range outs[c*reps : (c+1)*reps] {
			if rep.Completed {
				completed++
			}
			rounds.Add(float64(rep.Rounds))
			crashed.Add(float64(rep.Detail.(gossip.Result).Crashed))
		}
		res.Rows = append(res.Rows, ChurnRow{
			CrashProb: p, Rounds: rounds.Mean(), Crashed: crashed.Mean(),
			Completed: completed, Reps: reps,
		})
	}
	return res, nil
}

// --- E10: replicated storage (Section 5) ----------------------------------

// StorageResult is the E10 outcome.
type StorageResult struct {
	N            int
	Rounds       float64
	MaxOccupancy float64
	MinOccupancy float64
	WastedFrac   float64
}

// Table renders E10.
func (r StorageResult) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("E10 — replicated storage via block exchanges (n = %d, 2 objects x 3 replicas, 12 slots)", r.N),
		"metric", "value")
	t.AddRow("rounds to full replication", fmt.Sprintf("%.1f", r.Rounds))
	t.AddRow("max occupancy", fmt.Sprintf("%.1f", r.MaxOccupancy))
	t.AddRow("min occupancy", fmt.Sprintf("%.1f", r.MinOccupancy))
	t.AddRow("wasted-date fraction", fmt.Sprintf("%.3f", r.WastedFrac))
	return t
}

// RunStorage replicates every node's objects over the dating service and
// reports convergence time and final load balance. Each repetition is one
// harness job; inside a job, every round's Arrange draws spare tokens from
// the harness's shared worker budget (the Arranger is worker-count
// independent, so the numbers cannot move).
func RunStorage(scale Scale, seed uint64, workers int, o *obs.Observer) (StorageResult, error) {
	n, reps := 100, 10
	if scale == ScalePaper {
		n, reps = 1000, 50
	}
	results, err := sweep(1, reps, workers, seed, domainStorage, func(_, _ int, jobSeed uint64, b *par.Budget) (storage.Result, error) {
		rep, err := runJob(storage.Config{
			N: n, ObjectsPerNode: 2, Replicas: 3, SlotsPerNode: 12, RoundCap: 2,
		}, jobSeed, b, o)
		if err != nil {
			return storage.Result{}, err
		}
		if !rep.Completed {
			return storage.Result{}, fmt.Errorf("sim: storage run incomplete")
		}
		return rep.Detail.(storage.Result), nil
	})
	if err != nil {
		return StorageResult{}, err
	}

	var rounds, maxOcc, minOcc, wasted stats.Accumulator
	for _, r := range results {
		rounds.Add(float64(r.Rounds))
		maxOcc.Add(float64(r.MaxOccupancy))
		minOcc.Add(float64(r.MinOccupancy))
		wasted.Add(float64(r.WastedDates) / float64(r.Transfers+r.WastedDates))
	}
	return StorageResult{
		N: n, Rounds: rounds.Mean(),
		MaxOccupancy: maxOcc.Mean(), MinOccupancy: minOcc.Mean(),
		WastedFrac: wasted.Mean(),
	}, nil
}
