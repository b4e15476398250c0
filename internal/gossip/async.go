package gossip

// This file is the asynchronous rumor-spreading protocol on the clockless
// runtime of internal/async: push&pull gossip where each peer contacts a
// partner at the ticks of its own exponential clock, instead of in globally
// synchronous rounds. The clock rate comes from the peer's heterogeneity
// profile — the regime the source paper's profile machinery models — so a
// high-bandwidth peer gossips proportionally more often, not just with more
// fan-out per round.

import (
	"fmt"

	"repro/internal/async"
	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
)

// Message kinds of the asynchronous push&pull exchange, disjoint from the
// dating handshake's kinds so ByKind traffic stays legible.
const (
	// kindContact is a clock-firing contact; A carries the sender's
	// informed bit (1 = the contact pushes the rumor).
	kindContact uint8 = 8
	// kindReply is the pull half: an informed peer answering an uninformed
	// contact with the rumor.
	kindReply uint8 = 9
)

// AsyncConfig parameterizes asynchronous push&pull spreading — the
// clockless counterpart of LiveConfig. Each peer fires at the points of a
// Poisson process whose rate is the mean of its profile bandwidths,
// (bin+bout)/2; at each firing it contacts one partner drawn from the
// selection distribution, pushing the rumor if it knows it and pulling a
// reply if the partner does. With a unit profile the mean inter-firing gap
// is one time unit — the expected synchronous round — so the spread curve
// is directly comparable to the round-synchronous protocols'. The run
// advances in calendar buckets of one time unit, the granularity at which
// shards synchronize and the quantum message arrivals are rounded up to,
// under a generous log-based cap far beyond any plausible completion time.
type AsyncConfig struct {
	Profile bandwidth.Profile
	// Selector defaults to uniform over the profile's nodes.
	Selector core.Selector
	// Source is the initially informed peer.
	Source int
	// Latency is each message's flight time in clock-time units (0 = 1,
	// one bucket).
	Latency float64
}

// AsyncResult reports an asynchronous spreading run: Rounds counts the
// calendar buckets executed, which is also the simulated clock time they
// span, and History holds the informed-peer count at each bucket boundary.
type AsyncResult struct {
	Stepped
	// Fired is the total number of clock firings executed.
	Fired int64
}

// runAsync executes asynchronous push&pull rumor spreading on the clockless
// runtime. The runtime carries its own latency model in
// AsyncConfig.Latency, so a network model in o is rejected rather than
// silently ignored.
func runAsync(cfg AsyncConfig, o liveOptions) (AsyncResult, error) {
	n := cfg.Profile.N()
	if n == 0 {
		return AsyncResult{}, fmt.Errorf("gossip: async run needs a profile")
	}
	if o.Net != nil {
		return AsyncResult{}, fmt.Errorf("gossip: async runs model latency via AsyncConfig.Latency, not a network model")
	}
	if _, err := cfg.Profile.Ratio(); err != nil {
		return AsyncResult{}, err
	}
	if cfg.Source < 0 || cfg.Source >= n {
		return AsyncResult{}, fmt.Errorf("gossip: source %d out of range [0,%d)", cfg.Source, n)
	}
	sel, err := core.SelectorFor(cfg.Selector, n)
	if err != nil {
		return AsyncResult{}, err
	}

	st := newPeerStates(n) // state 1 is "informed"
	fire, recv := asyncHandlers(sel, &st)
	rt, err := async.New(async.Config{
		N:       n,
		Seed:    o.Seed,
		Rates:   meanBandwidth(cfg.Profile), // bandwidth heterogeneity becomes firing-frequency heterogeneity
		Latency: cfg.Latency,
		Shards:  o.Shards,
		Obs:     o.Obs,
		Fire:    fire,
		Recv:    recv,
	})
	if err != nil {
		return AsyncResult{}, err
	}
	st.key(rt.Cuts(), 1)
	st.set(cfg.Source, 1)

	// Replies still in flight when every peer knows the rumor no longer
	// matter, so the run stops at that boundary.
	res := AsyncResult{Stepped: drive(rt.RunBuckets, 0, 1, defaultRoundCap(n), nil, func(int) (int, bool) {
		informed := st.count(1)
		return informed, informed == n
	})}
	res.Fired = rt.Fired()
	return res, nil
}

// asyncHandlers builds the push&pull handlers over the peers' informed
// states: a firing contacts one partner, pushing the rumor if its peer
// knows it; an uninformed contact is answered with the rumor (pull).
func asyncHandlers(sel core.Selector, st *peerStates) (async.FireFunc, async.RecvFunc) {
	fire := func(peer, fire int, t float64, s *rng.Stream, emit func(simnet.Message)) {
		emit(simnet.Message{To: sel.Pick(s), Kind: kindContact, A: int32(st.of[peer])})
	}
	recv := func(peer int, m simnet.Message, emit func(simnet.Message)) {
		switch m.Kind {
		case kindContact:
			if m.A == 1 {
				st.set(peer, 1) // push
			} else if st.of[peer] == 1 {
				emit(simnet.Message{To: m.From, Kind: kindReply, A: 1}) // pull
			}
		case kindReply:
			st.set(peer, 1)
		}
	}
	return fire, recv
}

// Protocol implements run.Spec.
func (c AsyncConfig) Protocol() string { return "async" }

// Execute implements run.Spec under liveOptionsFor(o, DomainAsync); WithNet
// is rejected. Trajectory is the informed-peer count per bucket; Detail the
// full AsyncResult.
func (c AsyncConfig) Execute(o *run.Options) (run.Report, error) {
	return execute(runAsync(c, liveOptionsFor(o, run.DomainAsync)))
}
