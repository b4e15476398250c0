// Package repro is a Go implementation of the heterogeneous dating service
// and its rumor-spreading application from:
//
//	Olivier Beaumont, Philippe Duchon, Miroslaw Korzeniowski.
//	"Heterogenous dating service with application to rumor spreading."
//	IEEE IPDPS 2008 (INRIA research report RR-6168).
//
// The dating service is a fully decentralized mechanism that pairs offers of
// outgoing bandwidth with requests for incoming bandwidth, never exceeding
// any node's declared capabilities. With high probability it arranges a
// constant fraction of everything a centralized matchmaker could, for *any*
// common selection distribution — including the highly non-uniform one a DHT
// induces — which is what makes it practical: unlike classical PUSH/PULL
// gossip, it never needs the ability to pick a peer uniformly at random.
//
// # The unified Run API
//
// Every protocol of the repository runs through one seed-first entrypoint:
//
//	rep, err := repro.Run(repro.RumorConfig{N: 1000, Algorithm: repro.Dating},
//	    repro.WithSeed(42), repro.WithWorkers(8))
//	fmt.Println(rep.Rounds, rep.Completed, rep.Messages)
//
// A protocol config — RumorConfig, MultiRumorConfig, LiveConfig,
// AsyncConfig, TopologyConfig, ConsensusConfig, MongerConfig, StorageConfig,
// HandshakeConfig — is a Spec,
// and the axes orthogonal to the protocol ride as functional options:
//
//   - WithSeed roots every random stream of the run. Streams are derived
//     internally with the repository's one SplitMix64 scheme, one domain
//     tag per protocol, so protocols sharing a seed draw from disjoint
//     stream families and a Report is a pure function of (spec, seed).
//   - WithWorkers sizes the run's worker budget — a shared token pool
//     (internal/par.Budget) that the dating rounds draw spare workers from
//     and that the sharded live runtime uses as its shard count. Because
//     every budget-fed engine derives randomness per unit of work rather
//     than per worker, the budget is a pure speed knob: bit-identical
//     reports at every value.
//   - WithNet plugs a network model into live runs: NetFixedLatency,
//     NetGeomLatency, NetLoss, NetEpochChurn, and NetRingLatency — the
//     asymmetric model whose per-pair latency is the ring distance in a
//     DHT-style embedding (UniformRingEmbedding builds one).
//   - WithObserver attaches the instrumentation layer (see Observability
//     below): Report.Metrics is filled with phase-timing and gauge
//     aggregates, and the observer can export a Chrome trace timeline.
//
// All protocols emit the same Report (rounds, per-round trajectory and
// message counts, totals, worst per-node loads, wall time), with the
// protocol-native result preserved in Report.Detail. hetsim -protocol, the
// experiment registry and the benchmark (bench/) all consume reports
// generically.
//
// Configs carry only the protocol: the orthogonal axes travel exclusively
// as options. Run is the one way to start a protocol — no protocol takes a
// stream from its caller — and the seed-compatibility golden tests pin its
// output bit-for-bit. Report.Trajectory holds the per-round progress (one
// entry per calendar bucket for clockless AsyncConfig runs); for live
// observation, use a protocol-level hook such as RumorConfig.OnRound.
//
// # Below the runner
//
// The package is the facade over the implementation layers, which remain
// available for round-level work:
//
//   - the dating service itself (Algorithm 1), as flat rounds;
//   - rumor spreading on top of it, plus the five classical baselines
//     (PUSH, PULL, PUSH&PULL, fair PULL, fair PUSH&PULL) of Figure 2, and
//     the message-level dating handshake on the sharded runtimes;
//   - the DHT substrate of Section 4 (Chord-style and continuous–discrete
//     routing, interval-weight selection). Pipelined lookups are measured
//     on the handshake itself: experiment E7 runs it over ring selection
//     with a fixed latency of one Chord lookup, where k dating rounds take
//     3k + O(L) network ticks instead of 3kL + 1;
//   - the Section 5 extensions: multi-block rumor mongering with GF(2^8)
//     random linear network coding, and replicated storage organized by
//     block exchanges;
//   - the experiment harness regenerating both figures of the paper's
//     evaluation and the extension experiments (hetsim -list).
//
// Single rounds:
//
//	profile := repro.UnitBandwidth(1000)          // n nodes, bin = bout = 1
//	sel, _ := repro.Uniform(1000)                 // selection distribution
//	svc, _ := repro.NewDatingService(profile, sel)
//	res, _ := svc.RunRoundSeeded(42, 1)           // one round of Algorithm 1, seed 42
//	fmt.Println(len(res.Dates), "dates arranged") // ≈ 0.47 * n
//
// # Parallelism without moving a number
//
// Every flat engine parallelizes a round as a radix-partitioned counting
// sort implemented once, in internal/exch (docs/ARCHITECTURE.md walks one
// round through it): workers own contiguous sender shards and destination
// ranges, round scratch is O(n + requests) whatever the worker count, and
// the layout is a pure function of the round's inputs. Randomness is
// derived per unit of work, not per worker — one stream per requesting node
// (SplitMix64(seed, scatterDomain, node)) and one per rendezvous bucket
// (SplitMix64(seed, matchDomain, rendezvous)) — so Arranger.Arrange and
// DatingService.RunRoundSeeded, one round body under both, are bit-for-bit
// identical for every worker count, and ArrangeShared / RunRoundShared can
// draw workers from a shared par.Budget (a Run's rounds and the harness's
// tail jobs soak up idle cores) without being able to change a result.
// RunRoundShared's dates live in a buffer the service reuses, valid until
// its next round. There is no stream-fed round: the paper's repeated
// rounds are repeated seeds. docs/DETERMINISM.md states the full contract.
//
// # The sharded live-message runtime
//
// LiveConfig runs the dating handshake as a real message protocol: every
// offer, answer and payload is an individually routed message and each
// peer's only state is its rumor bit. HandshakeConfig runs the same
// handshake with no rumor for a fixed number of dating rounds: its report
// counts the dates and every control message, the paper's overhead model.
// Both run on the sharded runtime (internal/live): a fixed pool of shard
// workers owning contiguous peer ranges on the shard-runtime core shared
// with the asynchronous runtime (internal/shardrt: messages filed on pooled pages
// under their destination's owner, which counting-sorts its own pages at
// delivery — its package comment has the mechanism), each peer-step's
// stream seeded SplitMix64(seed, peerDomain, round, peer). Runs are
// bit-identical for every shard count, and to the sequential engine the
// tests keep as an oracle. A 10^6-peer spread completes in tens of
// seconds (examples/livescale).
//
// WithNet plugs a network model into the sharded runtime: NetFixedLatency
// and NetGeomLatency keep messages in flight for several rounds, NetLoss
// drops them iid, NetEpochChurn takes whole peers down for whole epochs
// (correlated loss), and NetRingLatency delays each pair by its ring
// distance in a DHT-style embedding — the asymmetric model, under which
// *which* rendezvous a request lands on decides how fast its handshake
// completes. Model randomness derives from SplitMix64(seed, netDomain,
// round, sender), preserving shard-count independence. The handshake
// absorbs all of it — payloads and answers act on arrival, control
// messages that miss their matching round wait for the rendezvous's next
// one — so hostile networks slow spreading gracefully rather than wedging
// it; the hetsim "live" experiment tables the sensitivity.
//
// # The clockless asynchronous runtime
//
// AsyncConfig drops the global round barrier: each peer contacts partners
// at the points of its own Poisson process, the rate drawn from its
// heterogeneity profile ((bin+bout)/2 — bandwidth heterogeneity becomes
// firing-frequency heterogeneity), pushing the rumor when it knows it and
// pulling a reply when the contact does. With a unit profile the mean
// inter-firing gap is one expected synchronous round, so sync and async
// spread curves share a time axis; the hetsim "async" experiment tables
// the comparison on homogeneous and Zipf profiles.
//
// The runtime underneath (internal/async) is a calendar queue on the same
// internal/shardrt core as the live runtime. Continuous time is cut into
// buckets of one time unit; a bucket is one tick of the
// core: deliver the bucket's arrivals, step (each shard replays its peers'
// arrivals, then their firings in time order) and
// route (hand emissions to future calendar slots) — and because peers
// interact only through messages that land in later buckets, the bucket
// boundary is the runtime's sole synchronization point. It is also the
// latency quantum: arrivals are absorbed at the boundary of their arrival
// bucket, so flight time is effectively max(Latency, time to the next
// boundary).
//
// Determinism holds without a clock to anchor rounds: peer i's k-th firing
// draws its inter-firing gap and its protocol randomness from a stream
// seeded SplitMix64(seed, asyncFireDomain, i, k), receive handlers are
// pure (no stream), and the runtime core delivers emissions in global
// (peer, firing) scan order — so a run is a pure function of
// (spec, seed) and bit-identical for every WithWorkers shard count.
// WithNet is rejected for async runs: flight time is the protocol's own
// Latency axis, not a pluggable round-grain model.
//
// # Topology-constrained spreading
//
// TopologyConfig drops the any-to-any rendezvous assumption: contacts are
// constrained to the edges of an explicit graph (internal/graph), stored in
// compressed-sparse-row form — two flat int32 arrays, offsets and
// neighbors, cache-friendly at millions of nodes. Four deterministic
// generators build topologies as pure functions of their parameters and a
// seed (streams derive under the dedicated DomainGraph tag, so a graph is
// bit-identical wherever it is built, at every worker count — golden tests
// pin each generator's digest): CompleteGraph (the paper's setting as a
// topology), RingLatticeGraph (the regular high-clustering baseline),
// ErdosRenyiGraph (G(n,p) via the Batagelj–Brandes geometric skip, O(n +
// edges)), BarabasiAlbertGraph (preferential attachment) and PowerLawGraph
// (erased configuration model with a free degree exponent).
//
// On top runs the Maki–Thompson spreader/stifler protocol: peers are
// ignorant, spreaders or stiflers. Each round every spreader contacts one
// neighbor, drawn uniformly. An ignorant contact accepts the rumor with
// probability Lambda; a contact that already knew replies "known", which
// stifles the initiating spreader with probability Alpha; and a spreader
// ceases spontaneously with probability Delta. Unlike push&pull, the rumor
// can die out before reaching everyone — the final spread fraction
// (TopologyResult.FinalSpread) is the epidemic-size observable, and the
// hetsim "topology" experiment tables it against Alpha on scale-free,
// random and complete graphs, from random and hub sources.
//
// The protocol runs on the sharded round runtime with one SIR state byte
// per peer, written only by the shard stepping that peer. All transition
// randomness comes from the acting peer's stream, consumed in canonical
// inbox order, so trajectories are bit-identical at every shard count;
// examples/topology cross-checks a 10^6-peer BA spread at
// shards {1, 2, 4} by digest.
//
// # Conflicting-rumor consensus
//
// ConsensusConfig spreads K conflicting variants of one rumor over a graph
// and measures convergence to agreement: each peer holds a current variant,
// revises it under a pluggable merge rule whenever it hears variants from
// its contacts, and the run completes when the leading variant is held by a
// Threshold share of the population (90% by default — the convergence-time
// observable). Each variant starts at one seed peer, and the seeding
// geometry is configurable: ConsensusSeedDistinct places the seeds at
// distinct uniform-random peers, ConsensusSeedHubLeaf alternates variants
// between the degree extremes of the graph (the seeding-advantage
// experiment on scale-free topologies), and ConsensusSeedClustered puts
// each variant at the start of its own ring range.
//
// Three merge rules, all deterministic in canonical inbox order:
// ConsensusRuleMajority adopts the variant heard most often over the peer's
// lifetime (exact ties to the lowest variant id); ConsensusRuleLatest
// adopts the newest logical timestamp, so the last-stamped seed's variant
// floods monotonically and consensus is guaranteed on any connected graph;
// ConsensusRuleWeighted is majority with each message weighted by the
// sender's mean profile bandwidth. The qualitative split the hetsim
// "consensus" experiment tables: on the complete graph every rule converges
// in O(log n) rounds, while on sparse scale-free graphs the lifetime-tally
// rules can lock in local pluralities and stall below the threshold — only
// the latest rule always floods to full agreement.
//
// The subsystem shares the topology machinery: per-peer variant state flat
// by peer id, contact randomness from the acting peer's stream, merge rules
// that consume no randomness — so runs are bit-identical at every shard
// count (examples/consensus cross-checks by digest). With an Observer
// attached, per-round variant-share gauges land in Report.Metrics on the
// "consensus" track.
//
// # Observability: read-only by contract
//
// WithObserver threads a passive instrumentation sink (internal/obs)
// through all three execution runtimes and the flat-round loop of rumor,
// multi-rumor, mongering and storage. Each registers a track;
// its shards record per-(round, shard, phase) wall-clock spans into
// lock-free per-shard arenas that the coordinator merges at the round
// barrier, and the coordinator samples per-round gauges — messages routed
// and dropped, clamped delays, peers stepped, calendar-queue depth, scratch
// bytes, budget tokens in flight. Run aggregates everything into Report.Metrics; the
// observer also writes the full timeline as Chrome trace_event JSON
// (about:tracing / ui.perfetto.dev) and renders plain-text summary tables.
// hetsim exposes all of it as -trace, -metrics and -pprof flags.
//
// The determinism contract: observers are read-only. They never touch a
// random stream, never reorder message exchanges, and never feed anything
// back into protocol state — so an instrumented run is bit-identical to an
// uninstrumented one, at every worker count, with the digest identity
// pinned by tests for every protocol. A disabled observer (the nil default)
// costs the runtimes one nil check per phase: every recording method is
// nil-receiver-safe and the time.Now calls are gated on the observer being
// attached.
//
// # The repetition-parallel experiment harness
//
// Above single runs, the experiment harness behind cmd/hetsim parallelizes
// at the repetition grain: every (overlay, repetition) cell of a figure
// sweep is an independent job whose stream is seeded
// SplitMix64(rootSeed, domainTag, coordinates...) from its position in the
// sweep, never from "the next value of a shared generator". With
// fixed-order aggregation after the fan-in barrier, every table is a pure
// function of (scale, seed): hetsim's -par flag only changes wall-clock
// time, and golden tests pin the quick-scale figure tables by hash. Each
// table is followed by its claims — statements from the paper (or a
// related paper) checked on the numbers behind the table's cells, with a
// verdict — and the harness test requires all of them to hold.
//
// See the runnable programs under examples/ and the one command,
// cmd/hetsim. The docs/ directory carries the repository-level contracts:
// docs/ARCHITECTURE.md (package map and round data flow),
// docs/DETERMINISM.md (the bit-identity contract and the full seed-domain
// registry) and docs/BENCHMARKS.md (the benchmark in bench/ and how a
// performance claim is made with it).
package repro
