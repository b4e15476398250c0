package gossip

// This file is conflicting-rumor consensus: K conflicting variants of one
// rumor are seeded into the population and spread over a contact graph, and
// each peer keeps a current opinion that it revises under a pluggable merge
// rule whenever it hears variants from its contacts (Elouafiq & Semma,
// "Consensus Over Conflicting Rumors"). Where the spreading protocols ask
// "how fast does everyone learn the rumor?", consensus asks "how fast does
// everyone come to agree on the SAME version of it?" — the observable is the
// round at which the leading variant's share of the population crosses a
// threshold (90% by default), and the interesting axes are the number of
// variants, where they are seeded, and how peers merge what they hear.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bandwidth"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
)

// kindConsVariant carries a peer's current variant (A) and its logical
// timestamp (B); disjoint from the dating handshake (1–4), the async
// exchange (8–9) and the topology protocol (10–11).
const kindConsVariant uint8 = 12

// consensusSeedDomain derives the seed-placement stream of SeedDistinct
// (registry tag 0xD1 in internal/rng/domains.go / docs/DETERMINISM.md).
// Placement randomness comes from the run seed, never from a peer stream,
// so where the variants start is decided before the first round and is
// identical for every engine and shard count.
const consensusSeedDomain uint64 = 0xD1

// ConsensusSeeding selects the geometry of the initial variant placement.
type ConsensusSeeding int

const (
	// SeedDistinct places the variants' seeds at distinct peers drawn
	// uniformly at random from the placement stream.
	SeedDistinct ConsensusSeeding = iota
	// SeedHubLeaf alternates variants between the degree extremes of the
	// graph: variant 1 takes the highest-degree hubs, variant 2 the
	// lowest-degree leaves, variant 3 the next hubs, and so on — the
	// seeding-advantage experiment of scale-free consensus.
	SeedHubLeaf
	// SeedClustered seeds variant v at the first peer of the v-th of K
	// equal ring ranges of [0, n) — spatially clustered opinions, the
	// hardest geometry for global agreement on ring-like topologies.
	SeedClustered
)

var seedingNames = [...]string{"random", "hub", "clustered"}

// String names the seeding geometry as used in tables.
func (g ConsensusSeeding) String() string {
	if g < 0 || int(g) >= len(seedingNames) {
		return fmt.Sprintf("seeding(%d)", int(g))
	}
	return seedingNames[g]
}

// MergeRule selects how a peer revises its variant from what it hears.
// Every rule is applied in canonical inbox order with no randomness of its
// own, which is what keeps trajectories bit-identical across engines and
// shard counts.
type MergeRule int

const (
	// RuleMajority adopts the variant the peer has heard most often over
	// its lifetime (each message counts 1); exact ties resolve to the
	// lowest variant id, deterministically.
	RuleMajority MergeRule = iota
	// RuleLatest adopts the variant with the newest logical timestamp.
	// Seed j of the canonical seeding order carries timestamp j+1, and
	// adopting a variant adopts its timestamp, so the last-stamped seed's
	// variant floods monotonically — consensus is guaranteed on a
	// connected graph and the convergence time is the flood time.
	RuleLatest
	// RuleWeighted is RuleMajority with each heard message weighted by the
	// sender's mean profile bandwidth (bin+bout)/2 — influential peers
	// count for more. With a uniform profile it is exactly RuleMajority.
	RuleWeighted
)

var ruleNames = [...]string{"majority", "latest", "weighted"}

// String names the merge rule as used in tables.
func (r MergeRule) String() string {
	if r < 0 || int(r) >= len(ruleNames) {
		return fmt.Sprintf("rule(%d)", int(r))
	}
	return ruleNames[r]
}

// ConsensusConfig parameterizes conflicting-rumor consensus: K variants of
// one rumor spread over a contact graph, merged per peer under Rule until
// the leading variant holds a Threshold share of the population.
type ConsensusConfig struct {
	// Variants is K, the number of conflicting variants (>= 1). K = 1
	// degenerates to plain single-rumor push spread over the graph.
	Variants int
	// Graph is the contact topology; every contact is drawn uniformly over
	// the speaking peer's neighbor row (graph.Complete recovers the
	// paper's any-to-any assumption).
	Graph *graph.CSR
	// Seeding picks the initial placement geometry of the variants.
	Seeding ConsensusSeeding
	// Rule is the merge rule peers revise their opinion under.
	Rule MergeRule
	// Profile supplies the per-peer influence weights of RuleWeighted
	// ((bin+bout)/2); required for that rule, ignored by the others.
	Profile bandwidth.Profile
	// Threshold is the agreement fraction that counts as consensus: the
	// run completes when the leading variant is held by at least
	// ceil(Threshold*n) peers (0 = 0.9, the convergence-time tables'
	// "rounds to 90% agreement").
	Threshold float64
	// MaxRounds caps the run (0 = generous log-based default).
	MaxRounds int
}

// ConsensusResult reports a conflicting-rumor consensus run. History is
// the count of peers holding any variant after each round — the spread
// component of the dynamics; Completed reports whether the leading variant
// reached the threshold share within the round cap.
type ConsensusResult struct {
	Stepped
	// Winner is the leading variant (1-based) when the run stopped.
	Winner int
	// Agreement is the leading variant's share of the whole population
	// when the run stopped.
	Agreement float64
	// Seeds lists the initially seeded peers in canonical order; seed j
	// holds variant j + 1.
	Seeds []int
	// ShareHist[r][v] is the count of peers holding variant v+1 after
	// round r+1 — the consensus component.
	ShareHist [][]int
}

// consState is the per-peer variant state, flat by peer id. peerStates
// holds each peer's current opinion (0 = undecided, 1..K) and tallies the
// K variants; stamp (RuleLatest only) holds the logical timestamp of the
// held variant; heard (RuleMajority / RuleWeighted only) holds K
// accumulated weights per peer, the peer's lifetime tally of what it has
// been told.
type consState struct {
	peerStates
	k     int
	stamp []int32
	heard []float64
}

func newConsState(n, k int, rule MergeRule) *consState {
	st := &consState{peerStates: newPeerStates(n), k: k}
	if rule == RuleLatest {
		st.stamp = make([]int32, n)
	} else {
		st.heard = make([]float64, n*k)
	}
	return st
}

// heardRow returns peer i's K-cell tally slice.
func (st *consState) heardRow(i int) []float64 {
	return st.heard[i*st.k : (i+1)*st.k]
}

// argmaxVariant returns the 1-based variant with the largest accumulated
// weight, resolving exact ties to the lowest variant id (only a strictly
// greater weight displaces the running best), or 0 when nothing was heard.
func argmaxVariant(heard []float64) int {
	best, bw := 0, 0.0
	for i, w := range heard {
		if w > bw {
			best, bw = i+1, w
		}
	}
	return best
}

// consStep builds the per-peer merge state machine. All contact randomness
// is drawn from the acting peer's own stream while its inbox is processed
// in canonical order — the merge rules themselves consume no randomness —
// so trajectories are bit-identical for every shard count and engine.
// weight is nil except under RuleWeighted, where weight[sender] scales each
// heard message; tallies accumulate in inbox order (float addition is not
// associative, so the canonical order is load-bearing for bit identity).
//
// A peer is awake exactly while it is decided: an undecided peer with an
// empty inbox revises nothing, stays undecided and skips the contact draw,
// which is what the runtime's sleep contract asks of a peer that reports
// false.
func consStep(sampler graph.UniformNeighbors, st *consState, weight []float64) live.ActiveStepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) bool {
		v := st.of[node]
		var stamp int32
		if st.stamp != nil {
			stamp = st.stamp[node]
			for k := range inbox {
				m := &inbox[k]
				if m.Kind != kindConsVariant {
					continue
				}
				mv, ms := uint8(m.A), m.B
				// Strictly newer stamps win; an equal stamp with a lower
				// variant id wins too, so the rule is total and
				// deterministic even if two seeds ever shared a stamp.
				if ms > stamp || (ms == stamp && v != 0 && mv < v) || v == 0 {
					v, stamp = mv, ms
				}
			}
			st.stamp[node] = stamp
		} else {
			heard := st.heardRow(node)
			revised := false
			for k := range inbox {
				m := &inbox[k]
				if m.Kind != kindConsVariant {
					continue
				}
				w := 1.0
				if weight != nil {
					w = weight[m.From]
				}
				heard[int(m.A)-1] += w
				revised = true
			}
			if revised {
				v = uint8(argmaxVariant(heard))
			}
		}
		st.set(node, v)
		if v == 0 {
			return false
		}
		if nb := sampler.Pick(node, s); nb >= 0 {
			emit(simnet.Message{To: nb, Kind: kindConsVariant, A: int32(v), B: stamp})
		}
		return true
	}
}

// consensusSeeds computes the canonical seeding order: one peer per
// variant, in variant order, placed by the configured geometry.
func consensusSeeds(cfg ConsensusConfig, seed uint64) ([]int, error) {
	n, k := cfg.Graph.N(), cfg.Variants
	if k > n {
		return nil, fmt.Errorf("gossip: %d variants exceed %d peers", k, n)
	}
	seeds := make([]int, 0, k)
	switch cfg.Seeding {
	case SeedDistinct:
		s := rng.New(rng.Derive(seed, consensusSeedDomain))
		taken := make(map[int]bool, k)
		for len(seeds) < k {
			p := s.Intn(n)
			if taken[p] {
				continue
			}
			taken[p] = true
			seeds = append(seeds, p)
		}
	case SeedHubLeaf:
		// Degree order, stable by id: odd variants draw from the hub end,
		// even variants from the leaf end, never overlapping.
		byDeg := make([]int, n)
		for i := range byDeg {
			byDeg[i] = i
		}
		sort.SliceStable(byDeg, func(a, b int) bool {
			da, db := cfg.Graph.Degree(byDeg[a]), cfg.Graph.Degree(byDeg[b])
			if da != db {
				return da > db
			}
			return byDeg[a] < byDeg[b]
		})
		for v := 0; v < k; v++ {
			if v%2 == 0 {
				seeds = append(seeds, byDeg[v/2])
			} else {
				seeds = append(seeds, byDeg[n-1-v/2])
			}
		}
	case SeedClustered:
		for v := 0; v < k; v++ {
			seeds = append(seeds, v*n/k)
		}
	default:
		return nil, fmt.Errorf("gossip: unknown consensus seeding %d", cfg.Seeding)
	}
	return seeds, nil
}

// runConsensus executes conflicting-rumor consensus on clk: the round
// runtime (roundClock) in production, the oracle in tests.
func runConsensus(cfg ConsensusConfig, o liveOptions, clk clock) (ConsensusResult, error) {
	if cfg.Graph == nil || cfg.Graph.N() == 0 {
		return ConsensusResult{}, fmt.Errorf("gossip: consensus run needs a graph")
	}
	n := cfg.Graph.N()
	if cfg.Variants < 1 || cfg.Variants > 255 {
		return ConsensusResult{}, fmt.Errorf("gossip: variant count %d out of [1,255]", cfg.Variants)
	}
	if err := unitInterval("consensus threshold", cfg.Threshold); err != nil {
		return ConsensusResult{}, err
	}
	if cfg.Rule < RuleMajority || cfg.Rule > RuleWeighted {
		return ConsensusResult{}, fmt.Errorf("gossip: unknown merge rule %d", cfg.Rule)
	}
	var weight []float64
	if cfg.Rule == RuleWeighted {
		if cfg.Profile.N() != n {
			return ConsensusResult{}, fmt.Errorf("gossip: weighted merge needs a profile over %d nodes, got %d", n, cfg.Profile.N())
		}
		weight = meanBandwidth(cfg.Profile)
	}
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = 0.9
	}
	target := int(math.Ceil(threshold * float64(n)))
	sampler, err := graph.NewUniformNeighbors(cfg.Graph)
	if err != nil {
		return ConsensusResult{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultRoundCap(n)
	}
	seeds, err := consensusSeeds(cfg, o.Seed)
	if err != nil {
		return ConsensusResult{}, err
	}

	st := newConsState(n, cfg.Variants, cfg.Rule)
	tick, _, cuts, err := clk(n, o, nil, consStep(sampler, st, weight))
	if err != nil {
		return ConsensusResult{}, err
	}
	st.key(cuts, cfg.Variants)
	for j, p := range seeds {
		v := uint8(j + 1)
		st.set(p, v)
		if st.stamp != nil {
			st.stamp[p] = int32(j + 1)
		} else {
			// The seed credits its own variant once (at its own influence
			// weight under RuleWeighted), so a freshly contacted seed does
			// not flip on the first thing it hears.
			w := 1.0
			if weight != nil {
				w = weight[p]
			}
			st.heardRow(p)[v-1] += w
		}
	}

	tr := o.Obs.Track("consensus", 1)
	gauges := make([]*obs.Gauge, cfg.Variants)
	for v := range gauges {
		gauges[v] = tr.Gauge(fmt.Sprintf("variant_%d", v+1))
	}
	res := ConsensusResult{Seeds: seeds}
	res.Stepped = drive(tick, 0, 1, maxRounds, tr, func(round int) (int, bool) {
		shares := make([]int, cfg.Variants)
		decided, lead := 0, 0
		for v := range shares {
			shares[v] = st.count(uint8(v + 1))
			decided += shares[v]
			if shares[v] > shares[lead] {
				lead = v
			}
			gauges[v].Sample(round, int64(shares[v]))
		}
		res.ShareHist = append(res.ShareHist, shares)
		res.Winner = lead + 1
		res.Agreement = float64(shares[lead]) / float64(n)
		return decided, shares[lead] >= target
	})
	return res, nil
}

// Protocol implements run.Spec.
func (c ConsensusConfig) Protocol() string { return "consensus" }

// Execute implements run.Spec under liveOptionsFor(o, DomainConsensus).
// Trajectory is the decided-peer history; Detail the full ConsensusResult
// (per-round variant shares, winner, agreement).
func (c ConsensusConfig) Execute(o *run.Options) (run.Report, error) {
	return execute(runConsensus(c, liveOptionsFor(o, run.DomainConsensus), roundClock))
}
