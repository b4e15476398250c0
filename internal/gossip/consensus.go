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
	"repro/internal/exch"
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
	// SeedDistinct places each variant's seeds at distinct peers drawn
	// uniformly at random from the placement stream.
	SeedDistinct ConsensusSeeding = iota
	// SeedHubLeaf alternates variants between the degree extremes of the
	// graph: variant 1 takes the highest-degree hubs, variant 2 the
	// lowest-degree leaves, variant 3 the next hubs, and so on — the
	// seeding-advantage experiment of scale-free consensus.
	SeedHubLeaf
	// SeedClustered gives variant v a contiguous block of peers at the
	// start of the v-th of K equal ring ranges of [0, n) — spatially
	// clustered opinions, the hardest geometry for global agreement on
	// ring-like topologies.
	SeedClustered
)

var seedingNames = [...]string{"random", "hub", "clustered"}

// String names the seeding geometry as used in CLI flags and tables.
func (g ConsensusSeeding) String() string {
	if g < 0 || int(g) >= len(seedingNames) {
		return fmt.Sprintf("seeding(%d)", int(g))
	}
	return seedingNames[g]
}

// ParseConsensusSeeding maps a name back to a ConsensusSeeding.
func ParseConsensusSeeding(name string) (ConsensusSeeding, error) {
	for i, n := range seedingNames {
		if n == name {
			return ConsensusSeeding(i), nil
		}
	}
	return 0, fmt.Errorf("gossip: unknown consensus seeding %q", name)
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

// String names the merge rule as used in CLI flags and tables.
func (r MergeRule) String() string {
	if r < 0 || int(r) >= len(ruleNames) {
		return fmt.Sprintf("rule(%d)", int(r))
	}
	return ruleNames[r]
}

// ParseMergeRule maps a name back to a MergeRule.
func ParseMergeRule(name string) (MergeRule, error) {
	for i, n := range ruleNames {
		if n == name {
			return MergeRule(i), nil
		}
	}
	return 0, fmt.Errorf("gossip: unknown merge rule %q", name)
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
	// SeedsPerVariant is the number of peers initially holding each
	// variant (0 = 1).
	SeedsPerVariant int
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

// ConsensusResult reports a conflicting-rumor consensus run.
type ConsensusResult struct {
	Rounds int
	// Completed reports whether the leading variant reached the threshold
	// share within the round cap.
	Completed bool
	// Winner is the leading variant (1-based) when the run stopped.
	Winner int
	// Agreement is the leading variant's share of the whole population
	// when the run stopped.
	Agreement float64
	// Seeds lists the initially seeded peers in canonical order; seed j
	// holds variant j/SeedsPerVariant + 1.
	Seeds []int
	// DecidedHist is the count of peers holding any variant after each
	// round — the spread component of the dynamics.
	DecidedHist []int
	// ShareHist[r][v] is the count of peers holding variant v+1 after
	// round r+1 — the consensus component.
	ShareHist [][]int
	// SentHistory is the number of messages routed per round.
	SentHistory []int
	Traffic     simnet.Stats
}

// consState is the per-peer variant state, laid out as contiguous cell
// blocks per shard — the owning shard is the only writer of its blocks, so
// blocks of different shards never share a slice (the -race suite pins this
// layout, the shard-local-arena idiom of the topology SIR state). The
// partition mirrors the runtime's exactly via live.EffectiveShards.
//
// variant holds each peer's current opinion (0 = undecided, 1..K).
// stamp (RuleLatest only) holds the logical timestamp of the held variant.
// heard (RuleMajority / RuleWeighted only) holds K accumulated weights per
// peer, the peer's lifetime tally of what it has been told.
//
// shares, on the sharded runtime, holds one row of K variant counts per
// shard (row o at shares[o*stride:]), kept current by the shard that owns
// the changing peer, so the coordinator sums K cells per shard between
// rounds instead of scanning n. Rows are a cache line or more apart. It is
// nil on the goroutine engine, whose concurrent mode steps the peers of its
// single block from many goroutines: there counts recounts — which is also
// the reference the shares are tested against.
type consState struct {
	part    exch.Partition
	start   []int // start[o] = part.Start(o), so that locate divides nothing
	k       int
	variant [][]uint8
	stamp   [][]int32
	heard   [][]float64
	shares  []int64
	stride  int
}

func newConsState(n, parts, k int, rule MergeRule, tallied bool) *consState {
	st := &consState{part: exch.NewPartition(n, parts), start: make([]int, parts), k: k}
	st.variant = make([][]uint8, parts)
	if rule == RuleLatest {
		st.stamp = make([][]int32, parts)
	} else {
		st.heard = make([][]float64, parts)
	}
	for o := range st.variant {
		lo, hi := st.part.Range(o)
		st.start[o] = lo
		st.variant[o] = make([]uint8, hi-lo)
		if st.stamp != nil {
			st.stamp[o] = make([]int32, hi-lo)
		}
		if st.heard != nil {
			st.heard[o] = make([]float64, (hi-lo)*k)
		}
	}
	if tallied {
		// K cells rounded up to whole cache lines, plus one line so the gap
		// holds whatever the slice's alignment.
		st.stride = (k+7)/8*8 + 8
		st.shares = make([]int64, parts*st.stride)
	}
	return st
}

// locate returns peer i's owning shard and its index within that shard's
// blocks.
func (st *consState) locate(i int) (o, li int) {
	o = st.part.Owner(i)
	return o, i - st.start[o]
}

// adopt moves the peer at (o, li) to variant v (0 = undecided), keeping o's
// share row current; while the runtime is stepping only shard o itself may
// call it.
func (st *consState) adopt(o, li int, v uint8) {
	if st.shares != nil {
		row := st.shares[o*st.stride:]
		if old := st.variant[o][li]; old != 0 {
			row[old-1]--
		}
		if v != 0 {
			row[v-1]++
		}
	}
	st.variant[o][li] = v
}

// heardRow returns the K-cell tally slice of the peer at (o, li).
func (st *consState) heardRow(o, li int) []float64 {
	return st.heard[o][li*st.k : (li+1)*st.k]
}

// counts fills shares with the per-variant totals and returns the number of
// decided peers; called by the coordinator between rounds, when the shards
// are quiescent.
func (st *consState) counts(shares []int) (decided int) {
	if st.shares == nil {
		return st.recount(shares)
	}
	for v := range shares {
		shares[v] = 0
		for o := 0; o < st.part.Parts; o++ {
			shares[v] += int(st.shares[o*st.stride+v])
		}
		decided += shares[v]
	}
	return decided
}

// recount is counts by scanning every peer's variant.
func (st *consState) recount(shares []int) (decided int) {
	for i := range shares {
		shares[i] = 0
	}
	for _, cell := range st.variant {
		for _, v := range cell {
			if v != 0 {
				decided++
				shares[v-1]++
			}
		}
	}
	return decided
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
func consStep(sampler graph.Sampler, st *consState, weight []float64) live.ActiveStepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) bool {
		o, li := st.locate(node)
		held := st.variant[o][li]
		v := held
		var stamp int32
		if st.stamp != nil {
			stamp = st.stamp[o][li]
			for _, m := range inbox {
				if m.Kind != kindConsVariant {
					continue
				}
				mv, ms := uint8(m.A), int32(m.B)
				// Strictly newer stamps win; an equal stamp with a lower
				// variant id wins too, so the rule is total and
				// deterministic even if two seeds ever shared a stamp.
				if ms > stamp || (ms == stamp && v != 0 && mv < v) || v == 0 {
					v, stamp = mv, ms
				}
			}
			st.stamp[o][li] = stamp
		} else {
			heard := st.heardRow(o, li)
			revised := false
			for _, m := range inbox {
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
		if v != held {
			st.adopt(o, li, v)
		}
		if v == 0 {
			return false
		}
		if nb := sampler.Pick(node, s); nb >= 0 {
			emit(simnet.Message{To: nb, Kind: kindConsVariant, A: int64(v), B: int64(stamp)})
		}
		return true
	}
}

// consensusSeeds computes the canonical seeding order: SeedsPerVariant
// peers per variant, variant-major, placed by the configured geometry.
func consensusSeeds(cfg ConsensusConfig, seed uint64) ([]int, error) {
	n := cfg.Graph.N()
	spv := cfg.SeedsPerVariant
	if spv <= 0 {
		spv = 1
	}
	total := cfg.Variants * spv
	if total > n {
		return nil, fmt.Errorf("gossip: %d variants x %d seeds exceed %d peers", cfg.Variants, spv, n)
	}
	seeds := make([]int, 0, total)
	switch cfg.Seeding {
	case SeedDistinct:
		s := rng.New(rng.Derive(seed, consensusSeedDomain))
		taken := make(map[int]bool, total)
		for len(seeds) < total {
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
		hub, leaf := 0, n-1
		for v := 0; v < cfg.Variants; v++ {
			for c := 0; c < spv; c++ {
				if v%2 == 0 {
					seeds = append(seeds, byDeg[hub])
					hub++
				} else {
					seeds = append(seeds, byDeg[leaf])
					leaf--
				}
			}
		}
	case SeedClustered:
		if spv > n/cfg.Variants {
			return nil, fmt.Errorf("gossip: clustered seeding needs %d seeds within a ring range of %d", spv, n/cfg.Variants)
		}
		for v := 0; v < cfg.Variants; v++ {
			start := v * n / cfg.Variants
			for c := 0; c < spv; c++ {
				seeds = append(seeds, start+c)
			}
		}
	default:
		return nil, fmt.Errorf("gossip: unknown consensus seeding %d", cfg.Seeding)
	}
	return seeds, nil
}

// RunConsensus executes conflicting-rumor consensus on a live message
// engine.
func RunConsensus(cfg ConsensusConfig, o LiveOptions) (ConsensusResult, error) {
	if cfg.Graph == nil || cfg.Graph.N() == 0 {
		return ConsensusResult{}, fmt.Errorf("gossip: consensus run needs a graph")
	}
	n := cfg.Graph.N()
	if cfg.Variants < 1 || cfg.Variants > 255 {
		return ConsensusResult{}, fmt.Errorf("gossip: variant count %d out of [1,255]", cfg.Variants)
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return ConsensusResult{}, fmt.Errorf("gossip: threshold %v out of [0,1]", cfg.Threshold)
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
	spv := len(seeds) / cfg.Variants

	st := newConsState(n, o.blocks(n), cfg.Variants, cfg.Rule, o.Engine == LiveSharded)
	for j, p := range seeds {
		v := uint8(j/spv + 1)
		po, pli := st.locate(p)
		st.adopt(po, pli, v)
		if st.stamp != nil {
			st.stamp[po][pli] = int32(j + 1)
		} else {
			// The seed credits its own variant once (at its own influence
			// weight under RuleWeighted), so a freshly contacted seed does
			// not flip on the first thing it hears.
			w := 1.0
			if weight != nil {
				w = weight[p]
			}
			st.heardRow(po, pli)[v-1] += w
		}
	}

	runRounds, err := o.runner(n, nil, consStep(sampler, st, weight))
	if err != nil {
		return ConsensusResult{}, err
	}

	tr := o.Obs.Track("consensus", 1)
	gauges := make([]*obs.Gauge, cfg.Variants)
	for v := range gauges {
		gauges[v] = tr.Gauge(fmt.Sprintf("variant_%d", v+1))
	}

	res := ConsensusResult{Seeds: seeds}
	shares := make([]int, cfg.Variants)
	var prevSent int64
	for round := 1; round <= maxRounds; round++ {
		res.Traffic = runRounds(1)
		res.SentHistory = append(res.SentHistory, int(res.Traffic.Sent-prevSent))
		prevSent = res.Traffic.Sent
		decided := st.counts(shares)
		res.Rounds = round
		res.DecidedHist = append(res.DecidedHist, decided)
		res.ShareHist = append(res.ShareHist, append([]int(nil), shares...))
		lead, leadCount := 1, shares[0]
		for v := 1; v < cfg.Variants; v++ {
			if shares[v] > leadCount {
				lead, leadCount = v+1, shares[v]
			}
		}
		for v, g := range gauges {
			g.Sample(round, int64(shares[v]))
		}
		tr.Barrier()
		res.Winner = lead
		res.Agreement = float64(leadCount) / float64(n)
		if leadCount >= target {
			res.Completed = true
			break
		}
	}
	return res, nil
}

// Protocol implements run.Spec.
func (c ConsensusConfig) Protocol() string { return "consensus" }

// Execute implements run.Spec under liveOptionsFor(o, DomainConsensus).
// Trajectory is the decided-peer history; Detail the full ConsensusResult
// (per-round variant shares, winner, agreement).
func (c ConsensusConfig) Execute(o *run.Options) (run.Report, error) {
	res, err := RunConsensus(c, liveOptionsFor(o, run.DomainConsensus))
	if err != nil {
		return run.Report{}, err
	}
	return run.Report{
		Rounds:     res.Rounds,
		Completed:  res.Completed,
		Trajectory: res.DecidedHist,
		Sent:       res.SentHistory,
		Messages:   res.Traffic.Sent,
		Dropped:    res.Traffic.Dropped,
		Clamped:    res.Traffic.Clamped,
		Detail:     res,
	}, nil
}
