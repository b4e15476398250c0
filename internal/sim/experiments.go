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

// runAlphaVsLoad (E3) measures the arranged fraction E[X]/m as bandwidth per
// node m/n grows, validating the paper's remark that it increases with m/n.
// Each load is one harness job of seeded rounds.
func runAlphaVsLoad(scale Scale, seed uint64, workers int, _ *obs.Observer) (*stats.Table, error) {
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
		return nil, err
	}
	t := stats.NewTable("E3 — fraction of m arranged vs per-node load (uniform selection)",
		"m/n", "fraction", "std")
	for c, acc := range accs {
		t.Add(stats.Int(loads[c]), stats.Num("%.4f", acc.Mean()), stats.Num("%.4f", acc.Std()))
	}
	return t, nil
}

// --- E4: selection-distribution ablation (the worst-case conjecture) -----

// runDistributionAblation (E4) compares the arranged fraction across
// selection distributions, testing the paper's conjecture that uniform is
// the worst case: every skewed distribution should arrange at least as many
// dates. Each distribution is one harness job of seeded rounds; the jobs
// share the read-only selectors.
func runDistributionAblation(scale Scale, seed uint64, workers int, _ *obs.Observer) (*stats.Table, error) {
	n, rounds := 1000, 200
	if scale == ScalePaper {
		rounds = 2000
	}

	uni, err := core.NewUniformSelector(n)
	if err != nil {
		return nil, err
	}
	ring, err := overlay.NewRing(n, rng.New(rng.Derive(seed, domainAblation)))
	if err != nil {
		return nil, err
	}
	rs, err := core.NewRingSelector(ring)
	if err != nil {
		return nil, err
	}
	names, sels := []string{"uniform", "dht-intervals"}, []core.Selector{uni, rs}
	// Zipf weights (i+1)^-exp at three exponents, then at exponent 0 the
	// two-point mass: one hub attracts half of all requests.
	for _, exp := range []float64{0.5, 1.0, 1.5, 0} {
		w := make([]float64, n)
		for i := range w {
			w[i] = math.Pow(float64(i+1), -exp)
		}
		name := fmt.Sprintf("zipf-%.1f", exp)
		if exp == 0 {
			w[0], name = float64(n-1), "hub-half"
		}
		ws, err := core.NewWeightedSelector(w)
		if err != nil {
			return nil, err
		}
		names, sels = append(names, name), append(sels, ws)
	}

	profile := bandwidth.Homogeneous(n, 1)
	accs, err := sweep(len(sels), 1, workers, seed, domainAblation, func(c, _ int, jobSeed uint64, b *par.Budget) (stats.Accumulator, error) {
		svc, err := core.NewService(profile, sels[c])
		if err != nil {
			return stats.Accumulator{}, err
		}
		return fractions(svc, rounds, n, jobSeed, b)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E4 — arranged fraction by selection distribution (n = m = 1000)",
		"distribution", "fraction", "std")
	for c, acc := range accs {
		t.Add(stats.Label(names[c]), stats.Num("%.4f", acc.Mean()), stats.Num("%.4f", acc.Std()))
	}
	return t, nil
}

// --- E5: the three phases of Theorem 4 -----------------------------------

// runPhases (E5) tracks I_t (total outgoing bandwidth of informed nodes)
// over dating-service spreading runs and reports the mean round at which
// each phase from the proof of Theorem 4 ends. Each repetition is one
// harness job.
func runPhases(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
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
		return nil, err
	}
	var p1, p2, p3 stats.Accumulator
	for _, it := range its {
		e1, e2, e3 := gossip.PhaseBoundaries(it, n, n)
		p1.Add(float64(e1))
		p2.Add(float64(e2))
		p3.Add(float64(e3))
	}
	t := stats.NewTable(fmt.Sprintf("E5 — Theorem 4 phase structure (dating, n = %d)", n),
		"phase", "ends at round (mean)")
	t.Add(stats.Label("1: I_t reaches max(m/n, log n)"), stats.Num("%.1f", p1.Mean()))
	t.Add(stats.Label("2: I_t reaches m/2"), stats.Num("%.1f", p2.Mean()))
	t.Add(stats.Label("3: all nodes informed"), stats.Num("%.1f", p3.Mean()))
	return t, nil
}

// --- E6: hierarchical distribution (Theorem 10) --------------------------

// runHierarchical (E6) runs the Theorem 10 experiment: a bimodal network
// where 10% of nodes have bandwidth 16, spreading from a rich source; rich
// nodes must be fully informed well before the weak tail. Each (n,
// repetition) is one harness job.
func runHierarchical(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
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
		return nil, err
	}
	t := stats.NewTable("E6 — Theorem 10: rich nodes (bandwidth m/n) finish early",
		"n", "rich informed by", "all informed by")
	for c, n := range ns {
		var rich, total stats.Accumulator
		for _, hr := range outs[c*reps : (c+1)*reps] {
			rich.Add(float64(hr.RichRounds))
			total.Add(float64(hr.TotalRounds))
		}
		t.Add(stats.Int(n), stats.Num("%.1f", rich.Mean()), stats.Num("%.1f", total.Mean()))
	}
	return t, nil
}

// --- E7: pipelining over the DHT (Section 4) -----------------------------

// runPipelining (E7) measures DHT routing latency L and runs k dating rounds
// of the handshake over ring selection under perfect sync and under
// FixedLatency{L}; a row reports the naive 3kL + 1 ticks of rounds that each
// wait out their three latencies, the measured ticks (drain included), and
// the dates per dating round under sync and latency. The handshake pipelines
// by construction — a peer scatters each round without waiting for the last
// one's answers — so the measured ticks grow by 3 per round, not by the
// naive 3L, and the rounds keep sync's date rate. Each k is one harness job
// running both networks from the job's seed.
func runPipelining(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	n, samples := 1024, 400
	if scale == ScalePaper {
		n, samples = 16384, 2000
	}
	ring, err := overlay.NewRing(n, rng.New(rng.Derive(seed, domainPipelining)))
	if err != nil {
		return nil, err
	}
	s := rng.New(rng.Derive(seed, domainPipelining, 0))
	chord := ring.AvgLookupHops(s, samples, ring.Lookup)
	cd := ring.AvgLookupHops(s, samples, ring.LookupCD)
	latency := int(math.Ceil(chord))
	sel, err := core.NewRingSelector(ring)
	if err != nil {
		return nil, err
	}
	// handshake runs k dating rounds and returns the network ticks and the
	// dates per dating round.
	handshake := func(k int, net live.NetModel, jobSeed uint64, b *par.Budget) (int64, float64, error) {
		rep, err := runJob(gossip.HandshakeConfig{Profile: bandwidth.Homogeneous(n, 1), Selector: sel, Rounds: k},
			jobSeed, b, o, run.WithNet(net))
		if err != nil {
			return 0, 0, err
		}
		return rep.Detail.(gossip.LiveResult).Traffic.Rounds, float64(rep.Trajectory[k-1]) / float64(k), nil
	}
	ks := []int{1, 2, 4, 8, 16, 32, 64}
	rows, err := sweep(len(ks), 1, workers, seed, domainPipelining, func(c, _ int, jobSeed uint64, b *par.Budget) ([]stats.Cell, error) {
		k := ks[c]
		_, syncDates, err := handshake(k, nil, jobSeed, b)
		if err != nil {
			return nil, err
		}
		ticks, dates, err := handshake(k, live.FixedLatency{Rounds: latency}, jobSeed, b)
		return []stats.Cell{stats.Int(k), stats.Int(3*k*latency + 1), stats.Int(ticks),
			stats.Num("%.1f", syncDates), stats.Num("%.1f", dates)}, err
	})
	if err != nil {
		return nil, err
	}
	return table(fmt.Sprintf("E7 — pipelined dating over a DHT (n = %d, chord %.1f hops, cd %.1f hops, latency %d ticks)", n, chord, cd, latency),
		[]string{"k rounds", "naive ticks", "measured ticks", "dates/round sync", "dates/round latency"}, rows), nil
}

// --- E8: rumor mongering with network coding (Section 5) -----------------

// runMongering (E8) broadcasts a B-block message via RLNC over the dating
// service and reports rounds against the information-theoretic lower bound
// (B rounds at unit bandwidth) and the fraction of packets sent that were
// innovative. Each (block count, repetition) is one harness job; its seed is
// also the payload's.
func runMongering(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
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
		return nil, err
	}
	t := stats.NewTable("E8 — multi-block broadcast via network coding over the dating service",
		"blocks", "rounds", "lower bound", "innovative fraction")
	for c, blocks := range blockCounts {
		var rounds, eff stats.Accumulator
		for _, out := range outs[c*reps : (c+1)*reps] {
			rounds.Add(out.rounds)
			eff.Add(out.eff)
		}
		t.Add(stats.Int(blocks), stats.Num("%.1f", rounds.Mean()), stats.Int(blocks), stats.Num("%.3f", eff.Mean()))
	}
	return t, nil
}

// --- E9: spreading under churn (Section 1 dynamics) ----------------------

// runChurn (E9) verifies that the spreading protocol tolerates node crashes
// — the robustness motivation the paper gives for keeping the protocol
// oblivious. The completed column reads "done/reps"; its number is the share
// of repetitions that completed. Each (crash probability, repetition) is one
// harness job.
func runChurn(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	n, reps := 1000, 10
	if scale == ScalePaper {
		reps = 200
	}
	probs := []float64{0, 0.01, 0.05}
	outs, err := sweep(len(probs), reps, workers, seed, domainChurn, func(c, _ int, jobSeed uint64, b *par.Budget) (run.Report, error) {
		return runJob(gossip.Config{Algorithm: gossip.Dating, N: n, Source: 0, CrashProb: probs[c]}, jobSeed, b, o)
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E9 — dating-service spreading under per-round crashes (n = 1000)",
		"crash prob", "rounds", "nodes crashed", "completed")
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
		t.Add(stats.Num("%.2f", p), stats.Num("%.1f", rounds.Mean()), stats.Num("%.0f", crashed.Mean()),
			stats.Cell{Text: fmt.Sprintf("%d/%d", completed, reps), Num: float64(completed) / float64(reps)})
	}
	return t, nil
}

// --- E10: replicated storage (Section 5) ---------------------------------

// runStorage (E10) replicates every node's objects over the dating service
// and reports convergence time and final load balance, one metric a row.
// Each repetition is one harness job; inside a job, every round's Arrange
// draws spare tokens from the harness's shared worker budget (the Arranger
// is worker-count independent, so the numbers cannot move).
func runStorage(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	n, reps := 100, 10
	if scale == ScalePaper {
		n, reps = 1000, 50
	}
	results, err := sweep(1, reps, workers, seed, domainStorage, func(_, _ int, jobSeed uint64, b *par.Budget) (storage.Result, error) {
		rep, err := runJob(storage.Config{N: n, ObjectsPerNode: 2, Replicas: 3, SlotsPerNode: 12, RoundCap: 2}, jobSeed, b, o)
		if err != nil {
			return storage.Result{}, err
		}
		if !rep.Completed {
			return storage.Result{}, fmt.Errorf("sim: storage run incomplete")
		}
		return rep.Detail.(storage.Result), nil
	})
	if err != nil {
		return nil, err
	}

	var rounds, maxOcc, minOcc, wasted stats.Accumulator
	for _, r := range results {
		rounds.Add(float64(r.Rounds))
		maxOcc.Add(float64(r.MaxOccupancy))
		minOcc.Add(float64(r.MinOccupancy))
		wasted.Add(float64(r.WastedDates) / float64(r.Transfers+r.WastedDates))
	}
	t := stats.NewTable(fmt.Sprintf("E10 — replicated storage via block exchanges (n = %d, 2 objects x 3 replicas, 12 slots)", n),
		"metric", "value")
	t.Add(stats.Label("rounds to full replication"), stats.Num("%.1f", rounds.Mean()))
	t.Add(stats.Label("max occupancy"), stats.Num("%.1f", maxOcc.Mean()))
	t.Add(stats.Label("min occupancy"), stats.Num("%.1f", minOcc.Mean()))
	t.Add(stats.Label("wasted-date fraction"), stats.Num("%.3f", wasted.Mean()))
	return t, nil
}

// --- E11: concurrent rumors share the dates ------------------------------

// runMultiRumorExperiment (E11) injects R rumors two rounds apart on
// distinct sources and measures completion, for R in {1, 2, 4, 8}: rounds
// until every node knows every rumor, the mean per-rumor completion round,
// and the speedup over R sequential single-rumor broadcasts, which is the
// point — the rumors share the arranged dates. Each repetition is one
// harness job seeded from (seed, rumor-count index, repetition).
func runMultiRumorExperiment(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	n, reps := 512, 8
	if scale == ScalePaper {
		n, reps = 4096, 50
	}
	rumorCounts := []int{1, 2, 4, 8}
	type outcome struct{ rounds, perRumor float64 }
	outs, err := sweep(len(rumorCounts), reps, workers, seed, domainMultiRumor, func(c, _ int, jobSeed uint64, b *par.Budget) (outcome, error) {
		rumors := rumorCounts[c]
		injections := make([]gossip.Injection, rumors)
		for r := range injections {
			injections[r] = gossip.Injection{Round: 1 + 2*r, Source: (r * 37) % n}
		}
		rep, err := runJob(gossip.MultiRumorConfig{N: n, Injections: injections}, jobSeed, b, o)
		if err != nil {
			return outcome{}, err
		}
		if !rep.Completed {
			return outcome{}, fmt.Errorf("sim: multi-rumor run incomplete (R=%d)", rumors)
		}
		var sum float64
		for _, d := range rep.Detail.(gossip.MultiRumorResult).PerRumorDone {
			sum += float64(d)
		}
		return outcome{rounds: float64(rep.Rounds), perRumor: sum / float64(rumors)}, nil
	})
	if err != nil {
		return nil, err
	}

	rounds := make([]stats.Accumulator, len(rumorCounts))
	per := make([]stats.Accumulator, len(rumorCounts))
	for c := range rumorCounts {
		for _, out := range outs[c*reps : (c+1)*reps] {
			rounds[c].Add(out.rounds)
			per[c].Add(out.perRumor)
		}
	}
	single := rounds[0].Mean() // rumorCounts[0] == 1
	t := stats.NewTable(
		fmt.Sprintf("E11 — concurrent rumors over one dating service (n = %d; single rumor alone: %.1f rounds)",
			n, single),
		"rumors", "all-done rounds", "per-rumor mean", "vs sequential")
	for c, rumors := range rumorCounts {
		speedup := single * float64(rumors) / rounds[c].Mean()
		t.Add(stats.Int(rumors), stats.Num("%.1f", rounds[c].Mean()), stats.Num("%.1f", per[c].Mean()),
			stats.Cell{Text: fmt.Sprintf("%.1fx faster", speedup), Num: speedup})
	}
	return t, nil
}

// --- E12: worst per-node loads (bandwidth honesty) -----------------------

// runLoadViolation (E12) measures the bandwidth honesty of every algorithm:
// the worst per-round per-node loads observed while spreading one rumor,
// averaged over repetitions. A unit-bandwidth node can legally send one and
// receive one message per round; anything above that is bandwidth the
// algorithm silently assumes, which is precisely the advantage the paper
// says makes PUSH/PULL comparisons unfair. The dating service must stay at
// 1/1; the unfair baselines overdrive nodes by Theta(log n / log log n)
// (balls-into-bins maxima). Each repetition is one harness job seeded from
// (seed, algorithm index, repetition).
func runLoadViolation(scale Scale, seed uint64, workers int, o *obs.Observer) (*stats.Table, error) {
	n, reps := 2048, 10
	if scale == ScalePaper {
		n, reps = 16384, 100
	}
	algos := gossip.Algorithms()
	outs, err := sweep(len(algos), reps, workers, seed, domainLoads, func(c, _ int, jobSeed uint64, b *par.Budget) (run.Report, error) {
		rep, err := runJob(gossip.Config{Algorithm: algos[c], N: n, Source: 0}, jobSeed, b, o)
		if err == nil && !rep.Completed {
			err = fmt.Errorf("sim: %v incomplete in load experiment", algos[c])
		}
		return rep, err
	})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("E12 — worst per-round node loads while spreading (n = %d, unit bandwidth)", n),
		"algorithm", "max in-load", "max out-load", "rounds")
	for c, a := range algos {
		var inL, outL, rounds stats.Accumulator
		for _, rep := range outs[c*reps : (c+1)*reps] {
			inL.Add(float64(rep.MaxInLoad))
			outL.Add(float64(rep.MaxOutLoad))
			rounds.Add(float64(rep.Rounds))
		}
		t.Add(stats.Label(a.String()), stats.Num("%.1f", inL.Mean()),
			stats.Num("%.1f", outL.Mean()), stats.Num("%.1f", rounds.Mean()))
	}
	return t, nil
}

// --- E13: spreading over a churning DHT (Section 1 dynamics) -------------

// runDynamicDHT (E13) spreads one rumor while, at the start of every round,
// each non-source node is replaced with probability p: its ring position is
// resampled and it forgets the rumor (a new peer reusing the id). Replaced
// nodes rejoin uninformed, so under sustained churn the network reaches a
// steady state rather than 100% coverage: fresh uninformed peers appear at
// rate p*n per round and are re-informed at rate ~alpha per round, giving an
// equilibrium coverage of about 1 - p/alpha (alpha ~ 0.5 for the DHT
// distribution). A row reports the mean rounds to 95% coverage, the mean
// coverage over the final quarter and the mean nodes replaced. Each
// repetition is one harness job seeded from (seed, churn-rate index,
// repetition); inside a job, every dating round draws spare tokens from the
// harness's shared worker budget, so once the sweep's tail leaves cores idle
// the remaining repetitions parallelize their rounds — a seeded round is
// worker-count independent, so the numbers cannot move.
func runDynamicDHT(scale Scale, seed uint64, workers int, _ *obs.Observer) (*stats.Table, error) {
	n, reps, rounds := 512, 8, 120
	if scale == ScalePaper {
		n, reps, rounds = 4096, 50, 200
	}
	probs := []float64{0, 0.005, 0.02}
	outs, err := sweep(len(probs), reps, workers, seed, domainDynamic, func(c, _ int, jobSeed uint64, b *par.Budget) (churnOutcome, error) {
		out, err := spreadOverChurningRing(n, probs[c], rounds, jobSeed, b)
		if err == nil && out.roundsTo95 == 0 {
			err = fmt.Errorf("sim: coverage never reached 95%% at p=%v", probs[c])
		}
		return out, err
	})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("E13 — spreading over a churning DHT (n = %d, %d rounds; replaced nodes forget the rumor)", n, rounds),
		"replace prob", "rounds to 95%", "steady-state coverage", "nodes replaced")
	for c, p := range probs {
		var to95, steady, replaced stats.Accumulator
		for _, out := range outs[c*reps : (c+1)*reps] {
			to95.Add(float64(out.roundsTo95))
			steady.Add(out.steadyCoverage)
			replaced.Add(float64(out.replaced))
		}
		t.Add(stats.Num("%.3f", p), stats.Num("%.1f", to95.Mean()),
			stats.Num("%.3f", steady.Mean()), stats.Num("%.0f", replaced.Mean()))
	}
	return t, nil
}

// churnOutcome summarizes one churning-ring run.
type churnOutcome struct {
	roundsTo95     int
	steadyCoverage float64
	replaced       int
}

// spreadOverChurningRing runs one spreading instance for a fixed number of
// rounds under sustained churn: unit-bandwidth dating rounds on run.Flat
// over a churnRing, whose replacements are the rounds' Churn hook. The
// ring, the churn and each round's seed draw from one stream seeded by the
// job: the initial positions, then in every round one Bernoulli per id
// 1..n-1 with each replaced id's redraws, then the round's seed.
func spreadOverChurningRing(n int, replaceProb float64, rounds int, seed uint64, b *par.Budget) (churnOutcome, error) {
	var out churnOutcome
	s := rng.New(seed)
	ring, err := newChurnRing(overlay.RandomPositions(n, s))
	if err != nil {
		return out, err
	}
	// learned[i] is 1 + the round node i learned the rumor in (0: not yet);
	// a sender carries it in round r iff it learned it before r.
	learned, count, sent := make([]int, n), 1, 0
	learned[0] = 1
	f := &run.Flat{N: n, Limit: rounds, Selector: ring,
		// A replaced id is a new peer that has not heard the rumor; the
		// source is never replaced.
		Churn: func(s *rng.Stream) error {
			before := out.replaced
			for id := 1; id < n; id++ {
				if s.Bernoulli(replaceProb) {
					ring.replace(id, s)
					if learned[id] > 0 {
						learned[id] = 0
						count--
					}
					out.replaced++
				}
			}
			if out.replaced == before {
				return nil
			}
			return ring.sort()
		},
		Dates: func(round int, dates []core.Date) error {
			for _, d := range dates {
				if l := learned[d.Sender]; l > 0 && l <= round && learned[d.Receiver] == 0 {
					learned[d.Receiver] = round + 1
					count++
				}
			}
			sent = len(dates)
			return nil
		},
		End: func(int) (int, int, bool) { return count, sent, false },
	}
	res, err := f.Drive(s, b, nil)
	if err != nil {
		return out, err
	}
	tailStart := rounds - rounds/4
	var tail stats.Accumulator
	for i, c := range res.History {
		coverage := float64(c) / float64(n)
		if out.roundsTo95 == 0 && coverage >= 0.95 {
			out.roundsTo95 = i + 1
		}
		if i >= tailStart {
			tail.Add(coverage)
		}
	}
	out.steadyCoverage = tail.Mean()
	return out, nil
}

// churnRing is E13's churning DHT as a selection distribution over stable
// node ids: pos keeps each id's ring position, a replacement moves one id
// to a fresh position, and sort rebuilds ring, the static ring of the
// current positions, with ids naming its ranks. A request addresses the id
// owning a uniform point. The distribution changes only between rounds,
// which is all Algorithm 1 asks.
type churnRing struct {
	pos  []uint64 // by id
	ids  []int    // by rank on ring
	ring *overlay.Ring
}

// newChurnRing places id i at pos[i]; the positions must be distinct.
func newChurnRing(pos []uint64) (*churnRing, error) {
	c := &churnRing{pos: pos, ids: make([]int, len(pos))}
	return c, c.sort()
}

// replace moves id to a fresh uniform position, as a new peer taking the
// id over would join: a position another id holds is drawn again, id's own
// old one may come back. Pick reads the old ring until the next sort.
func (c *churnRing) replace(id int, s *rng.Stream) {
redraw:
	for {
		p := s.Uint64()
		for other, q := range c.pos {
			if q == p && other != id {
				continue redraw
			}
		}
		c.pos[id] = p
		return
	}
}

// sort rebuilds the ring from the ids' current positions: each id's rank
// is that of the node owning its own position.
func (c *churnRing) sort() error {
	ring, err := overlay.RingFromPositions(c.pos)
	if err != nil {
		return err
	}
	for id, p := range c.pos {
		c.ids[ring.Owner(p)] = id
	}
	c.ring = ring
	return nil
}

// Pick implements core.Selector: the id owning a uniform point.
func (c *churnRing) Pick(s *rng.Stream) int { return c.ids[c.ring.PickOwner(s)] }

// N implements core.Selector.
func (c *churnRing) N() int { return len(c.pos) }
