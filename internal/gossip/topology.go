package gossip

// This file is graph-constrained spreading: the Maki–Thompson spreader/
// stifler protocol (ignorant → spreader → stifler) running on a CSR topology
// from internal/graph instead of the any-to-any rendezvous assumption. Each
// round every spreader contacts one *neighbor*; contacting a peer that
// already knows the rumor stifles the initiator with probability Alpha, and
// a spreader may also cease spontaneously with probability Delta — so unlike
// the push/pull protocols the epidemic can die out before reaching everyone,
// and the final spread fraction becomes the quantity of interest.

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/exch"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
)

// Message kinds of the topology protocol, disjoint from the dating handshake
// (1–4) and the async exchange (8–9) so ByKind traffic stays legible.
const (
	// kindTopoContact is a spreader's contact carrying the rumor.
	kindTopoContact uint8 = 10
	// kindTopoKnown is the "already knew it" reply that may stifle the
	// contacting spreader.
	kindTopoKnown uint8 = 11
)

// SIR peer states. Informed means spreader or stifler: a stifler knows the
// rumor, it just no longer forwards it.
const (
	topoIgnorant uint8 = iota
	topoSpreader
	topoStifler
)

// TopologyConfig parameterizes graph-constrained spreader/stifler spreading.
// The zero Lambda means 1 (the classic Maki–Thompson acceptance); Alpha and
// Delta default to 0, under which the protocol degenerates to plain push
// over the graph and — on the complete graph — to the any-to-any push
// protocol's final spread.
type TopologyConfig struct {
	// Graph is the contact topology; every contact is drawn over the
	// initiating peer's neighbor row.
	Graph *graph.CSR
	// Profile, with Weighted set, biases each neighbor draw proportional to
	// the neighbor's mean bandwidth (bin+bout)/2 — the dating service's
	// heterogeneity knob transplanted to the graph setting. Empty profile or
	// Weighted false means uniform neighbor choice.
	Profile  bandwidth.Profile
	Weighted bool
	// Source is the initially spreading peer.
	Source int
	// Alpha is the stifling probability: a spreader told "already knew" by
	// its contact turns stifler with this probability.
	Alpha float64
	// Lambda is the acceptance probability: an ignorant contacted by a
	// spreader turns spreader with this probability (0 means 1).
	Lambda float64
	// Delta is the spontaneous per-round cessation probability of a
	// spreader.
	Delta float64
	// MaxRounds caps the run (0 = generous log-based default).
	MaxRounds int
}

// TopologyResult reports a graph-constrained spreading run.
type TopologyResult struct {
	Rounds    int
	Completed bool
	// History is the informed count (spreaders + stiflers) after each round.
	History []int
	// SpreaderHist / StiflerHist split the informed count by state.
	SpreaderHist []int
	StiflerHist  []int
	// SentHistory is the number of messages routed per round.
	SentHistory []int
	// FinalSpread is the informed fraction when the run stopped — the
	// epidemic-size observable of the rumor literature (< 1 when stifling
	// killed the rumor early).
	FinalSpread float64
	Traffic     simnet.Stats
}

// topoState is the per-peer SIR state, laid out as one contiguous cell block
// per shard — the owning shard is the only writer of its block, so blocks of
// different shards never share a slice (the -race suite pins this layout).
// The partition mirrors the runtime's exactly via live.EffectiveShards.
//
// tally, on the sharded runtime, is one state histogram per shard, kept
// current by the shard that owns the changing peer, so the coordinator sums
// a few cells between rounds instead of scanning n. It is nil on the
// goroutine engine, whose concurrent mode steps the peers of its single
// block from many goroutines: there counts recounts — which is also the
// reference the tallies are tested against.
type topoState struct {
	part  exch.Partition
	start []int // start[o] = part.Start(o), so that cell divides nothing
	cells [][]uint8
	tally []topoTally
}

// topoTally counts one shard's peers by SIR state, padded to a cache line
// so that neighbouring shards' updates do not contend.
type topoTally struct {
	n [3]int64
	_ [40]byte
}

func newTopoState(n, parts int, tallied bool) *topoState {
	st := &topoState{part: exch.NewPartition(n, parts), start: make([]int, parts)}
	st.cells = make([][]uint8, parts)
	for o := range st.cells {
		lo, hi := st.part.Range(o)
		st.start[o] = lo
		st.cells[o] = make([]uint8, hi-lo)
	}
	if tallied {
		st.tally = make([]topoTally, parts)
		for o := range st.tally {
			st.tally[o].n[topoIgnorant] = int64(len(st.cells[o]))
		}
	}
	return st
}

// cell locates peer i: its owning shard and its state cell.
func (st *topoState) cell(i int) (o int, c *uint8) {
	o = st.part.Owner(i)
	return o, &st.cells[o][i-st.start[o]]
}

// move changes a cell of shard o to state v, keeping o's tally current;
// while the runtime is stepping only shard o itself may call it.
func (st *topoState) move(o int, c *uint8, v uint8) {
	if st.tally != nil {
		st.tally[o].n[*c]--
		st.tally[o].n[v]++
	}
	*c = v
}

// counts returns the spreader and stifler totals; called by the coordinator
// between rounds, when the shards are quiescent.
func (st *topoState) counts() (spreaders, stiflers int) {
	if st.tally == nil {
		return st.recount()
	}
	for o := range st.tally {
		spreaders += int(st.tally[o].n[topoSpreader])
		stiflers += int(st.tally[o].n[topoStifler])
	}
	return
}

// recount tallies the states by scanning every cell.
func (st *topoState) recount() (spreaders, stiflers int) {
	for _, cell := range st.cells {
		for _, v := range cell {
			switch v {
			case topoSpreader:
				spreaders++
			case topoStifler:
				stiflers++
			}
		}
	}
	return
}

// topoStep builds the per-peer spreader/stifler state machine. All
// transition randomness is drawn from the acting peer's own stream while its
// inbox is processed in canonical order, so trajectories are bit-identical
// for every shard count. Draw order per round is fixed: inbox decisions
// first (acceptance for contacts, stifling for replies), then the cessation
// draw, then the contact draw — and Bernoulli consumes no randomness at its
// degenerate probabilities, so Alpha = 0 and Lambda = 1 runs stay aligned
// with runs that never consult those knobs.
//
// A peer is awake exactly while it is a spreader: an ignorant or a stifler
// with an empty inbox falls through both blocks below without a draw, an
// emission or a state change, which is what the runtime's sleep contract
// asks of a peer that reports false.
func topoStep(sampler graph.Sampler, st *topoState, alpha, lambda, delta float64) live.ActiveStepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) bool {
		o, cell := st.cell(node)
		state := *cell
		for _, m := range inbox {
			switch m.Kind {
			case kindTopoContact:
				switch state {
				case topoIgnorant:
					if s.Bernoulli(lambda) {
						state = topoSpreader
					}
				default: // spreader or stifler: already knew
					emit(simnet.Message{To: m.From, Kind: kindTopoKnown})
				}
			case kindTopoKnown:
				if state == topoSpreader && s.Bernoulli(alpha) {
					state = topoStifler
				}
			}
		}
		if state == topoSpreader {
			if s.Bernoulli(delta) {
				state = topoStifler
			} else if nb := sampler.Pick(node, s); nb >= 0 {
				emit(simnet.Message{To: nb, Kind: kindTopoContact, A: 1})
			}
		}
		if state != *cell {
			st.move(o, cell, state)
		}
		return state == topoSpreader
	}
}

// topoSampler builds the neighbor sampler the config asks for.
func topoSampler(cfg TopologyConfig) (graph.Sampler, error) {
	if !cfg.Weighted {
		return graph.NewUniformNeighbors(cfg.Graph)
	}
	n := cfg.Graph.N()
	if cfg.Profile.N() != n {
		return nil, fmt.Errorf("gossip: weighted topology needs a profile over %d nodes, got %d", n, cfg.Profile.N())
	}
	return graph.NewWeightedNeighbors(cfg.Graph, meanBandwidth(cfg.Profile))
}

// RunTopology executes graph-constrained spreader/stifler spreading on a
// live message engine.
func RunTopology(cfg TopologyConfig, o LiveOptions) (TopologyResult, error) {
	if cfg.Graph == nil || cfg.Graph.N() == 0 {
		return TopologyResult{}, fmt.Errorf("gossip: topology run needs a graph")
	}
	n := cfg.Graph.N()
	if cfg.Source < 0 || cfg.Source >= n {
		return TopologyResult{}, fmt.Errorf("gossip: source %d out of range [0,%d)", cfg.Source, n)
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 || cfg.Lambda < 0 || cfg.Lambda > 1 || cfg.Delta < 0 || cfg.Delta > 1 {
		return TopologyResult{}, fmt.Errorf("gossip: topology rates must lie in [0,1], got alpha=%v lambda=%v delta=%v",
			cfg.Alpha, cfg.Lambda, cfg.Delta)
	}
	lambda := cfg.Lambda
	if lambda == 0 {
		lambda = 1
	}
	sampler, err := topoSampler(cfg)
	if err != nil {
		return TopologyResult{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultRoundCap(n)
	}

	st := newTopoState(n, o.blocks(n), o.Engine == LiveSharded)
	so, sc := st.cell(cfg.Source)
	st.move(so, sc, topoSpreader)

	runRounds, err := o.runner(n, nil, topoStep(sampler, st, cfg.Alpha, lambda, cfg.Delta))
	if err != nil {
		return TopologyResult{}, err
	}
	maxDelay := 1
	if o.Net != nil {
		maxDelay = o.Net.MaxDelay()
	}

	tr := o.Obs.Track("topology", 1)
	gSpread := tr.Gauge("spreaders")
	gStifle := tr.Gauge("stiflers")

	var res TopologyResult
	var prevSent int64
	informed := 0
	quiet := 0
	for round := 1; round <= maxRounds; round++ {
		res.Traffic = runRounds(1)
		res.SentHistory = append(res.SentHistory, int(res.Traffic.Sent-prevSent))
		prevSent = res.Traffic.Sent
		spreaders, stiflers := st.counts()
		informed = spreaders + stiflers
		res.Rounds = round
		res.History = append(res.History, informed)
		res.SpreaderHist = append(res.SpreaderHist, spreaders)
		res.StiflerHist = append(res.StiflerHist, stiflers)
		gSpread.Sample(round, int64(spreaders))
		gStifle.Sample(round, int64(stiflers))
		tr.Barrier()
		if spreaders == 0 {
			// No spreader emitted a contact this round; once that holds for
			// maxDelay consecutive rounds no stale contact from an earlier
			// round is in flight either, so the epidemic is over. (Informed
			// peers still answer contacts, so full spread alone does not
			// quiesce traffic — stop there too.)
			quiet++
			if quiet >= maxDelay {
				res.Completed = true
				break
			}
		} else {
			quiet = 0
			if informed == n {
				res.Completed = true
				break
			}
		}
	}
	res.FinalSpread = float64(informed) / float64(n)
	return res, nil
}

// Protocol implements run.Spec.
func (c TopologyConfig) Protocol() string { return "topology" }

// Execute implements run.Spec under liveOptionsFor(o, DomainTopology).
// Trajectory is the informed-peer history; Detail the full TopologyResult
// (spreader/stifler split, final spread fraction).
func (c TopologyConfig) Execute(o *run.Options) (run.Report, error) {
	res, err := RunTopology(c, liveOptionsFor(o, run.DomainTopology))
	if err != nil {
		return run.Report{}, err
	}
	return run.Report{
		Rounds:     res.Rounds,
		Completed:  res.Completed,
		Trajectory: res.History,
		Sent:       res.SentHistory,
		Messages:   res.Traffic.Sent,
		Dropped:    res.Traffic.Dropped,
		Clamped:    res.Traffic.Clamped,
		Detail:     res,
	}, nil
}
