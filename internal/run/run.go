// Package run is the seed-first unified runner behind repro.Run: one
// entrypoint that executes any protocol of the repository — rumor spreading,
// multi-rumor, message-level live spreading, network-coded mongering,
// replicated storage, the explicit dating handshake — from a Spec plus a set
// of orthogonal axes carried by functional options.
//
// # Why a single runner
//
// The facade used to grow one entrypoint per subsystem, each with its own
// signature (some took a *rng.Stream, some buried the seed in the config)
// and with Workers/Net duplicated across four config structs. The runner
// collapses that N×M surface: a protocol config implements Spec, and the
// axes that are orthogonal to the protocol — seed, worker budget, network
// model, observer — are options:
//
//	rep, err := run.Run(cfg,
//	    run.WithSeed(42),
//	    run.WithWorkers(8),
//	    run.WithNet(live.Loss{P: 0.01}),
//	)
//
// # Seed derivation
//
// *rng.Stream disappears from the public surface; Run derives every stream
// internally with the repository's one derivation scheme. Each protocol owns
// a domain tag and its effective seed is
//
//	rng.Derive(rootSeed, domain)
//
// so protocols sharing a root seed draw from disjoint stream families. A
// spec's Execute is its only entrypoint: no protocol takes a stream from
// its caller, and the seed-compatibility golden tests pin Run's output.
//
// # The worker budget
//
// WithWorkers(k) sizes a par.Budget of k tokens that the whole run draws
// from, unless WithBudget shares one the caller already holds: the
// protocol's dating rounds grab spare tokens per round (via
// Arranger.ArrangeShared / Service.RunRoundShared) instead of pinning a
// fixed inner worker count. Every budget-fed engine derives its randomness
// per unit of work, so the worker count a round happens to get is a pure
// speed knob — reports are bit-identical for every k >= 1.
//
// # The round loop
//
// Every protocol is a sequence of rounds that yields a progress count per
// round, and all nine run on one loop, Drive. A protocol hands Drive its
// round function — advance one round, return what it sent, its progress,
// whether it is done, or an error — and Drive runs it up to the round cap,
// records Rounds, Completed, History and SentHistory in the Stepped core
// every result embeds, and publishes the protocol's observer track after
// each round. Stepped.Report is the one mapping onto Report: Messages is the
// sum of the sent counts unless the protocol ran on a message engine, whose
// counters it then reports.
//
// The round-abstract protocols (rumor, multi-rumor, mongering, storage) draw
// one seed per round off their run stream. The five stepped protocols (live,
// handshake, topology, consensus, async) reach Drive through a thin wrapper
// in internal/gossip that ticks their runtime — the handshake's one-tick
// prologue and three ticks per dating round, one tick per round or calendar
// bucket otherwise — and takes each round's sent count from the runtime's
// traffic; the bare handshake, which runs a fixed number of dating rounds,
// counts its dates instead.
package run

import (
	"fmt"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
)

// Protocol seed-derivation domains. Every Spec derives its effective seed
// as rng.Derive(rootSeed, domain), keeping the stream families of protocols
// that share a root seed disjoint. The tags live in the 0xA_ range; the
// full allocation map — every family of every package — is the registry in
// internal/rng/domains.go, mirrored in docs/DETERMINISM.md.
const (
	DomainRumor     uint64 = 0xA1
	DomainMulti     uint64 = 0xA2
	DomainLive      uint64 = 0xA3
	DomainMonger    uint64 = 0xA4
	DomainStorage   uint64 = 0xA5
	DomainHandshake uint64 = 0xA6
	DomainAsync     uint64 = 0xA7
	DomainTopology  uint64 = 0xA8
	DomainConsensus uint64 = 0xA9
)

// SeedFor returns the effective seed a protocol with the given domain tag
// derives from a root seed.
func SeedFor(seed, domain uint64) uint64 { return rng.Derive(seed, domain) }

// StreamFor returns the run stream a protocol with the given domain tag
// derives from a root seed: what a round-level spec's Execute hands its
// protocol body.
func StreamFor(seed, domain uint64) *rng.Stream { return rng.New(SeedFor(seed, domain)) }

// Options carries the orthogonal axes of a run. Specs read it in Execute;
// construct it through Run's functional options, never literally.
type Options struct {
	// Seed is the root seed; each protocol derives its own streams from it
	// (see the Domain tags).
	Seed uint64
	// Workers is the run's total worker budget, >= 1.
	Workers int
	// Budget is the shared token pool the protocol's rounds draw from;
	// Run sizes it from Workers when the caller did not share one.
	Budget *par.Budget
	// Net plugs a network model into message-level substrates; nil is the
	// paper's perfect-sync network.
	Net live.NetModel
	// Obs, when non-nil, receives the run's instrumentation: phase spans
	// and per-round gauges from every runtime the protocol constructs.
	// Observers are read-only — attaching one never changes any result —
	// and Run fills Report.Metrics from the tracks the run registered.
	Obs *obs.Observer
}

// Option mutates Options; the With* constructors are the public vocabulary.
type Option func(*Options)

// WithSeed sets the root seed of the run (default 0). Two runs of the same
// spec and seed are bit-identical whatever the other options say.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Seed = seed } }

// WithWorkers sets the run's worker budget (default 1). Parallelism is a
// pure speed knob: every worker count produces the same report.
func WithWorkers(k int) Option { return func(o *Options) { o.Workers = k } }

// WithNet plugs a network model — latency, loss, churn — into the run.
// Only message-level protocols (live spreading) consult it.
func WithNet(m live.NetModel) Option { return func(o *Options) { o.Net = m } }

// WithBudget shares an existing worker pool with the run instead of sizing
// a fresh one from WithWorkers — this is how the experiment harness lets a
// run's inner rounds soak up cores its other jobs are done with.
func WithBudget(b *par.Budget) Option { return func(o *Options) { o.Budget = b } }

// WithObserver attaches an instrumentation observer: every runtime the
// protocol constructs registers phase-span tracks and per-round gauges on
// it, and the run's Report carries their aggregate in Metrics. Observers
// are strictly read-only — they never touch a random stream or reorder an
// exchange — so an instrumented run is bit-identical to an uninstrumented
// one (the spec-table identity matrix in internal/sim pins this for every
// protocol at several worker counts).
func WithObserver(o *obs.Observer) Option { return func(opts *Options) { opts.Obs = o } }

// Report is the unified outcome every protocol emits: enough for the sim
// registry, hetsim and the benchmark to consume any run
// generically, with the protocol-native result preserved in Detail.
type Report struct {
	// Protocol is the spec's short name ("rumor", "live", "storage", ...).
	Protocol string `json:"protocol"`
	// Rounds is the number of protocol rounds executed.
	Rounds int `json:"rounds"`
	// Completed reports whether the protocol reached its goal within its
	// round cap (fixed-length protocols always complete).
	Completed bool `json:"completed"`
	// Trajectory is the per-round progress counter: informed nodes,
	// (node, rumor) pairs known, fully decoded nodes, cumulative replicas
	// placed, cumulative dates completed.
	Trajectory []int `json:"trajectory,omitempty"`
	// Sent is the per-round count of dates arranged / messages moved.
	Sent []int `json:"sent,omitempty"`
	// Messages is the run's total message (or date) count.
	Messages int64 `json:"messages"`
	// Dropped / Clamped surface the message-engine traffic counters for
	// protocols that run on one (live, async, handshake): messages lost to
	// the network model or invalid destinations, and messages whose
	// planned delay exceeded the engine's schedulable horizon (a NetModel
	// whose Plan and MaxDelay disagree). Zero for round-abstract protocols.
	Dropped int64 `json:"dropped,omitempty"`
	Clamped int64 `json:"clamped,omitempty"`
	// MaxInLoad / MaxOutLoad are the worst per-round per-node loads, for
	// protocols that track bandwidth honesty (0 where untracked).
	MaxInLoad  int `json:"max_in_load,omitempty"`
	MaxOutLoad int `json:"max_out_load,omitempty"`
	// Wall is the run's wall-clock time, stamped by Run.
	Wall time.Duration `json:"wall_ns"`
	// Seed and Workers echo the options for reproducibility records.
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	// Metrics is the aggregated instrumentation of the run — phase
	// wall-clock totals and per-round gauge summaries — when an observer
	// was attached with WithObserver; nil otherwise.
	Metrics *obs.Metrics `json:"metrics,omitempty"`
	// Detail is the protocol-native result (gossip.Result, storage.Result,
	// ...) for callers that need fields the unified shape does not carry.
	Detail any `json:"-"`
}

// Spec is a runnable protocol configuration. Every protocol config of the
// repository implements it; Run is the only caller of Execute.
type Spec interface {
	// Protocol returns the spec's short name, used as Report.Protocol and
	// as the protocol column of generic tables.
	Protocol() string
	// Execute runs the protocol under the given options and returns the
	// unified report. Run stamps Protocol, Seed, Workers and Wall; Execute
	// fills everything else.
	Execute(o *Options) (Report, error)
}

// Run executes a protocol spec under the given options and returns its
// unified report. The report is a pure function of (spec, seed): the worker
// budget and shared budgets only change wall-clock time.
func Run(spec Spec, opts ...Option) (Report, error) {
	if spec == nil {
		return Report{}, fmt.Errorf("run: nil spec")
	}
	o := &Options{Workers: 1}
	for _, opt := range opts {
		opt(o)
	}
	if o.Workers < 1 {
		return Report{}, fmt.Errorf("run: workers %d must be at least 1", o.Workers)
	}
	if o.Budget == nil {
		b, err := par.NewBudget(o.Workers)
		if err != nil {
			return Report{}, err
		}
		o.Budget = b
	}
	mark := o.Obs.Mark()
	start := time.Now()
	rep, err := spec.Execute(o)
	if err != nil {
		return Report{}, err
	}
	rep.Protocol = spec.Protocol()
	rep.Seed = o.Seed
	rep.Workers = o.Workers
	rep.Wall = time.Since(start)
	if rep.Rounds == 0 {
		rep.Rounds = len(rep.Trajectory)
	}
	if o.Obs != nil {
		rep.Metrics = o.Obs.MetricsSince(mark)
	}
	return rep, nil
}
