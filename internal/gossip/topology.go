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
	"errors"
	"fmt"

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
}

// TopologyResult reports a graph-constrained spreading run; History is the
// informed count (spreaders + stiflers) after each round.
type TopologyResult struct {
	Stepped
	// SpreaderHist / StiflerHist split the informed count by state.
	SpreaderHist []int
	StiflerHist  []int
	// FinalSpread is the informed fraction when the run stopped — the
	// epidemic-size observable of the rumor literature (< 1 when stifling
	// killed the rumor early).
	FinalSpread float64
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
// with an empty inbox falls through both blocks below without an emission
// or a state change, which is what the runtime's sleep contract asks of a
// peer that reports false.
func topoStep(sampler graph.UniformNeighbors, st *peerStates, alpha, lambda, delta float64) live.ActiveStepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) bool {
		state := st.of[node]
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
		st.set(node, state)
		return state == topoSpreader
	}
}

// runTopology executes graph-constrained spreader/stifler spreading on clk:
// the round runtime (roundClock) in production, the oracle in tests.
func runTopology(cfg TopologyConfig, o liveOptions, clk clock) (TopologyResult, error) {
	if cfg.Graph == nil || cfg.Graph.N() == 0 {
		return TopologyResult{}, fmt.Errorf("gossip: topology run needs a graph")
	}
	n := cfg.Graph.N()
	if cfg.Source < 0 || cfg.Source >= n {
		return TopologyResult{}, fmt.Errorf("gossip: source %d out of range [0,%d)", cfg.Source, n)
	}
	if err := errors.Join(unitInterval("topology alpha", cfg.Alpha), unitInterval("topology lambda", cfg.Lambda),
		unitInterval("topology delta", cfg.Delta)); err != nil {
		return TopologyResult{}, err
	}
	lambda := cfg.Lambda
	if lambda == 0 {
		lambda = 1
	}
	sampler, err := graph.NewUniformNeighbors(cfg.Graph)
	if err != nil {
		return TopologyResult{}, err
	}

	st := newPeerStates(n) // states topoSpreader and topoStifler are counted
	tick, _, cuts, err := clk(n, o, nil, topoStep(sampler, &st, cfg.Alpha, lambda, cfg.Delta))
	if err != nil {
		return TopologyResult{}, err
	}
	st.key(cuts, 2)
	st.set(cfg.Source, topoSpreader)
	maxDelay := 1
	if o.Net != nil {
		maxDelay = o.Net.MaxDelay()
	}

	tr := o.Obs.Track("topology", 1)
	gSpread := tr.Gauge("spreaders")
	gStifle := tr.Gauge("stiflers")
	var res TopologyResult
	quiet := 0
	res.Stepped = drive(tick, 0, 1, defaultRoundCap(n), tr, func(round int) (int, bool) {
		spreaders, stiflers := st.count(topoSpreader), st.count(topoStifler)
		res.SpreaderHist = append(res.SpreaderHist, spreaders)
		res.StiflerHist = append(res.StiflerHist, stiflers)
		gSpread.Sample(round, int64(spreaders))
		gStifle.Sample(round, int64(stiflers))
		informed := spreaders + stiflers
		if spreaders > 0 {
			quiet = 0
			return informed, informed == n
		}
		// No spreader emitted a contact this round; once that holds for
		// maxDelay consecutive rounds no stale contact from an earlier
		// round is in flight either, so the epidemic is over. (Informed
		// peers still answer contacts, so full spread alone does not
		// quiesce traffic — stop there too.)
		quiet++
		return informed, quiet >= maxDelay
	})
	res.FinalSpread = float64(res.History[len(res.History)-1]) / float64(n)
	return res, nil
}

// Protocol implements run.Spec.
func (c TopologyConfig) Protocol() string { return "topology" }

// Execute implements run.Spec under liveOptionsFor(o, DomainTopology).
// Trajectory is the informed-peer history; Detail the full TopologyResult
// (spreader/stifler split, final spread fraction).
func (c TopologyConfig) Execute(o *run.Options) (run.Report, error) {
	return execute(runTopology(c, liveOptionsFor(o, run.DomainTopology), roundClock))
}
