package repro

import (
	"repro/internal/bandwidth"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
	"repro/internal/storage"
)

// Re-exported core types. The facade uses type aliases so that values flow
// freely between the public API and the implementation packages.
type (
	// Stream is a deterministic random stream. Only the input builders
	// (NewRing, ZipfBandwidth) take one; rounds and runs take seeds.
	Stream = rng.Stream

	// Profile holds per-node incoming/outgoing bandwidths (bin, bout).
	Profile = bandwidth.Profile

	// Selector is the common selection distribution for dating requests.
	Selector = core.Selector

	// Date is one arranged unit communication (Sender -> Receiver), two
	// int32 node ids: index with them directly, convert with int(d.Sender)
	// where an int is needed.
	Date = core.Date

	// RoundResult reports one dating-service round.
	RoundResult = core.RoundResult

	// DatingService runs rounds of Algorithm 1.
	DatingService = core.Service

	// Ring is the DHT substrate of Section 4.
	Ring = overlay.Ring

	// RumorConfig parameterizes a rumor-spreading run.
	RumorConfig = gossip.Config

	// RumorResult reports a rumor-spreading run.
	RumorResult = gossip.Result

	// Algorithm selects a spreading protocol (Dating or a baseline).
	Algorithm = gossip.Algorithm

	// MongerConfig parameterizes network-coded multi-block broadcast.
	MongerConfig = coding.MongerConfig

	// MongerResult reports a mongering run.
	MongerResult = coding.MongerResult

	// StorageConfig parameterizes dating-organized replication.
	StorageConfig = storage.Config

	// StorageResult reports a replication run.
	StorageResult = storage.Result

	// Arranger matches supply and demand vectors round after round with
	// reusable scratch; its output is independent of its worker count.
	Arranger = core.Arranger

	// LiveConfig parameterizes fully message-level spreading; the shard
	// count and network model come from the run options (WithWorkers,
	// WithNet).
	LiveConfig = gossip.LiveConfig

	// LiveResult reports a run of the dating handshake: a spread
	// (LiveConfig) or the bare handshake (HandshakeConfig).
	LiveResult = gossip.LiveResult

	// NetModel decides message latency and loss in sharded live runs.
	NetModel = live.NetModel

	// NetSync is the paper's synchronous reliable network (the default).
	NetSync = live.Sync

	// NetFixedLatency delivers every message after a fixed number of rounds.
	NetFixedLatency = live.FixedLatency

	// NetGeomLatency gives each message an independent geometric delay.
	NetGeomLatency = live.GeomLatency

	// NetLoss drops each message independently with fixed probability.
	NetLoss = live.Loss

	// NetEpochChurn takes whole peers down for whole epochs (correlated loss).
	NetEpochChurn = live.EpochChurn

	// AsyncConfig parameterizes asynchronous push&pull spreading on the
	// clockless event-driven runtime: each peer fires on its own
	// exponential clock (rate drawn from its heterogeneity profile) instead
	// of in globally synchronous rounds. The shard count comes from the run
	// options (WithWorkers) and is a pure speed knob — every count replays
	// the identical event history bit for bit.
	AsyncConfig = gossip.AsyncConfig

	// AsyncResult reports an asynchronous spreading run (buckets executed,
	// each one unit of simulated clock time, informed-count history,
	// firings).
	AsyncResult = gossip.AsyncResult

	// Graph is a compressed-sparse-row undirected topology: the contact
	// structure of graph-constrained spreading. Build one with
	// CompleteGraph, RingLatticeGraph, ErdosRenyiGraph, BarabasiAlbertGraph
	// or PowerLawGraph — all deterministic functions of their parameters and
	// seed.
	Graph = graph.CSR

	// TopologyConfig parameterizes graph-constrained Maki–Thompson
	// spreader/stifler spreading (ignorant → spreader → stifler; stifling
	// Alpha, acceptance Lambda, cessation Delta): every contact is drawn
	// uniformly over the initiating peer's neighbor row instead of the
	// any-to-any rendezvous assumption. The shard count and network model
	// come from the run options.
	TopologyConfig = gossip.TopologyConfig

	// TopologyResult reports a graph-constrained spreading run, including
	// the per-round spreader/stifler split and the final spread fraction.
	TopologyResult = gossip.TopologyResult

	// ConsensusConfig parameterizes conflicting-rumor consensus: K
	// conflicting variants of one rumor seeded by geometry (ConsensusSeed*)
	// over a Graph and merged per peer under a Rule (ConsensusRule*) until
	// the leading variant holds a Threshold share of the population. The
	// shard count and network model come from the run options; attach an
	// Observer to get per-round variant-share gauges in Report.Metrics.
	ConsensusConfig = gossip.ConsensusConfig

	// ConsensusResult reports a consensus run: winner, agreement level and
	// the full per-round variant-share history (Report.Detail).
	ConsensusResult = gossip.ConsensusResult

	// ConsensusSeeding selects the initial variant placement geometry; see
	// the ConsensusSeed* constants.
	ConsensusSeeding = gossip.ConsensusSeeding

	// ConsensusRule selects the merge rule peers revise their variant
	// under; see the ConsensusRule* constants.
	ConsensusRule = gossip.MergeRule

	// MultiRumorConfig parameterizes spreading of several rumors injected
	// over time.
	MultiRumorConfig = gossip.MultiRumorConfig

	// MultiRumorResult reports a multi-rumor run.
	MultiRumorResult = gossip.MultiRumorResult

	// Injection introduces one rumor at a given round and source.
	Injection = gossip.Injection

	// NetworkStats aggregates a message runtime's traffic counters
	// (messages sent, dropped, per kind): the Traffic of LiveResult, and so
	// of every LiveConfig and HandshakeConfig run.
	NetworkStats = simnet.Stats

	// HandshakeConfig runs the dating service on its own as the explicit
	// three-step handshake, for a fixed number of dating rounds on the
	// round runtime: repro.Run(HandshakeConfig{...}). Its Report.Detail is
	// a LiveResult whose Traffic exposes the control-message overhead.
	HandshakeConfig = gossip.HandshakeConfig

	// NetRingLatency is the asymmetric network model: per-pair latency
	// proportional to ring distance in a DHT-style embedding, so which
	// rendezvous a request lands on decides how fast its handshake runs.
	NetRingLatency = live.RingLatency

	// Spec is a runnable protocol configuration; every protocol config of
	// this package implements it, and Run is its single entrypoint.
	Spec = run.Spec

	// Report is the unified outcome every protocol emits under Run.
	Report = run.Report

	// RunOption is a functional option of Run; see WithSeed, WithWorkers,
	// WithNet and WithObserver.
	RunOption = run.Option

	// Observer is the deterministic instrumentation sink of WithObserver:
	// phase spans, per-round gauges, Chrome-trace export and the Metrics
	// aggregate. Observers are read-only — attaching one never changes a
	// run's results.
	Observer = obs.Observer

	// Metrics is the aggregated instrumentation attached to Report.Metrics
	// when an observer was attached.
	Metrics = obs.Metrics
)

// Spreading algorithms, in the display order of the paper's Figure 2.
const (
	PushPull     = gossip.PushPull
	FairPushPull = gossip.FairPushPull
	Pull         = gossip.Pull
	FairPull     = gossip.FairPull
	Push         = gossip.Push
	Dating       = gossip.Dating
)

// Seeding geometries of ConsensusConfig: where the K conflicting variants
// start.
const (
	// ConsensusSeedDistinct seeds the variants at distinct uniform-random
	// peers, one each.
	ConsensusSeedDistinct = gossip.SeedDistinct
	// ConsensusSeedHubLeaf alternates variants between the highest-degree
	// hubs and the lowest-degree leaves of the graph.
	ConsensusSeedHubLeaf = gossip.SeedHubLeaf
	// ConsensusSeedClustered seeds each variant at the start of its own
	// ring range — spatially clustered initial opinions.
	ConsensusSeedClustered = gossip.SeedClustered
)

// Merge rules of ConsensusConfig: how a peer revises its variant from what
// it hears. All rules are deterministic in canonical inbox order.
const (
	// ConsensusRuleMajority adopts the variant heard most often (ties to
	// the lowest variant id).
	ConsensusRuleMajority = gossip.RuleMajority
	// ConsensusRuleLatest adopts the variant with the newest logical
	// timestamp; it floods to full consensus on any connected graph.
	ConsensusRuleLatest = gossip.RuleLatest
	// ConsensusRuleWeighted is majority with each message weighted by the
	// sender's mean profile bandwidth.
	ConsensusRuleWeighted = gossip.RuleWeighted
)

// Run executes any protocol of this package — rumor spreading
// (RumorConfig), multi-rumor (MultiRumorConfig), message-level live
// spreading (LiveConfig), asynchronous clockless spreading (AsyncConfig),
// graph-constrained spreader/stifler spreading (TopologyConfig),
// conflicting-rumor consensus (ConsensusConfig),
// network-coded mongering (MongerConfig), replicated storage
// (StorageConfig), the explicit dating handshake (HandshakeConfig) — from
// its config spec plus the orthogonal axes carried by options:
//
//	rep, err := repro.Run(repro.RumorConfig{N: 1000, Algorithm: repro.Dating},
//	    repro.WithSeed(42), repro.WithWorkers(8))
//	fmt.Println(rep.Rounds, rep.Completed)
//
// Seeds replace streams: Run derives every random stream internally from
// the root seed with the repository's SplitMix64 domain scheme, one domain
// per protocol, so protocols sharing a seed draw from disjoint stream
// families and a report is a pure function of (spec, seed). The worker
// budget (WithWorkers) and shared budgets are pure speed knobs — the
// seed-compatibility tests pin Run's output bit-for-bit across them.
func Run(spec Spec, opts ...RunOption) (Report, error) { return run.Run(spec, opts...) }

// WithSeed sets the run's root seed (default 0); two runs of one spec and
// seed are bit-identical whatever the other options say.
func WithSeed(seed uint64) RunOption { return run.WithSeed(seed) }

// WithWorkers sets the run's total worker budget (default 1): dating
// rounds draw spare workers from one shared pool, and the sharded live
// runtime uses it as its shard count. Results never depend on it.
func WithWorkers(k int) RunOption { return run.WithWorkers(k) }

// WithNet plugs a network model — latency, loss, churn, ring-distance
// asymmetry — into a live run; nil is the paper's perfect-sync model.
func WithNet(m NetModel) RunOption { return run.WithNet(m) }

// NewObserver returns an empty instrumentation observer for WithObserver.
// After the run, export with Observer.WriteTraceFile (Chrome trace_event
// JSON for about:tracing / Perfetto), print Observer.Summary, or read the
// aggregate from Report.Metrics.
func NewObserver() *Observer { return obs.NewObserver() }

// WithObserver attaches an instrumentation observer to the run: the
// runtimes record per-(round, shard, phase) wall-clock spans and per-round
// gauges (messages routed and dropped, clamped delays, calendar-queue
// depth, scratch bytes, budget tokens in flight) into it, and Run fills
// Report.Metrics with the aggregate. Observation is read-only and touches
// no random stream: an instrumented run is bit-identical to an
// uninstrumented one, at every worker count.
func WithObserver(o *Observer) RunOption { return run.WithObserver(o) }

// UniformRingEmbedding places n peers at uniform positions on the unit
// ring, derived from seed — the standard embedding for NetRingLatency when
// no real overlay coordinates exist.
func UniformRingEmbedding(n int, seed uint64) []float64 { return live.UniformRing(n, seed) }

// CompleteGraph returns the complete graph on n nodes — the any-to-any
// rendezvous assumption expressed as a topology (O(n²) storage; keep n
// modest).
func CompleteGraph(n int) (*Graph, error) { return graph.Complete(n) }

// RingLatticeGraph returns the ring lattice where each node is adjacent to
// its k nearest neighbors per side (degree 2k); fully determined by (n, k).
func RingLatticeGraph(n, k int) (*Graph, error) { return graph.RingLattice(n, k) }

// ErdosRenyiGraph returns a G(n, p) random graph, generated in O(n + edges)
// with the Batagelj–Brandes skip; a pure function of (n, p, seed).
func ErdosRenyiGraph(n int, p float64, seed uint64) (*Graph, error) {
	return graph.ErdosRenyi(n, p, seed)
}

// BarabasiAlbertGraph returns a preferential-attachment scale-free graph
// (m edges per arriving node); a pure function of (n, m, seed).
func BarabasiAlbertGraph(n, m int, seed uint64) (*Graph, error) {
	return graph.BarabasiAlbert(n, m, seed)
}

// PowerLawGraph returns an erased-configuration-model graph whose degrees
// follow P(d) ∝ d^-exponent on [minDeg, maxDeg]; a pure function of its
// parameters and seed.
func PowerLawGraph(n int, exponent float64, minDeg, maxDeg int, seed uint64) (*Graph, error) {
	return graph.PowerLaw(n, exponent, minDeg, maxDeg, seed)
}

// NewStream returns a deterministic random stream seeded with seed.
func NewStream(seed uint64) *Stream { return rng.New(seed) }

// UnitBandwidth returns the homogeneous profile of the paper's figures:
// every node sends and receives one unit message per round.
func UnitBandwidth(n int) Profile { return bandwidth.Homogeneous(n, 1) }

// Homogeneous returns a profile with bin = bout = b for every node.
func Homogeneous(n, b int) Profile { return bandwidth.Homogeneous(n, b) }

// Bimodal returns a two-class rich/poor profile (Theorem 10 workloads).
func Bimodal(n, rich, richB, poorB int) (Profile, error) {
	return bandwidth.Bimodal(n, rich, richB, poorB)
}

// ZipfBandwidth draws per-node bandwidths from a Zipf law, skewing in/out
// within the paper's C-ratio bound.
func ZipfBandwidth(n int, exponent float64, maxB int, c float64, s *Stream) (Profile, error) {
	return bandwidth.Zipf(n, exponent, maxB, c, s)
}

// Uniform returns the uniform selection distribution over n nodes.
func Uniform(n int) (Selector, error) { return core.NewUniformSelector(n) }

// Weighted returns a selection distribution proportional to weights.
func Weighted(weights []float64) (Selector, error) { return core.NewWeightedSelector(weights) }

// RingSelection wraps a DHT ring as a selection distribution: each node is
// chosen with probability equal to its arc length (Section 4).
func RingSelection(r *Ring) (Selector, error) { return core.NewRingSelector(r) }

// NewRing places n DHT nodes uniformly at random on the ring.
func NewRing(n int, s *Stream) (*Ring, error) { return overlay.NewRing(n, s) }

// NewDatingService builds a dating service for a bandwidth profile and a
// selection distribution.
func NewDatingService(p Profile, sel Selector) (*DatingService, error) {
	return core.NewService(p, sel)
}

// NewArranger builds a reusable supply/demand matcher over a selection
// distribution: the abstract resource-matching interface of the paper's
// introduction, per-node supply and demand vectors with zeros allowed.
// Arrange(out, in, seed, workers) draws its randomness from
// per-node and per-rendezvous streams derived from seed with SplitMix64,
// so the arranged dates are bit-for-bit identical for every workers count —
// parallelism is purely a speed knob:
//
//	arr, _ := repro.NewArranger(sel)
//	for round := 0; round < rounds; round++ {
//		dates, _ := arr.Arrange(supply, demand, uint64(round), 8)
//		...
//	}
func NewArranger(sel Selector) (*Arranger, error) { return core.NewArranger(sel) }
