package gossip

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
)

// LiveEngine selects the execution substrate for a message-level run.
type LiveEngine int

const (
	// LiveGoroutine is the legacy engine: one goroutine per peer (or its
	// sequential twin, per LiveConfig.Concurrent). Perfect-sync only.
	LiveGoroutine LiveEngine = iota
	// LiveSharded is the internal/live runtime: a fixed pool of shard
	// workers over flat message buffers. It scales to millions of peers,
	// is bit-identical for every shard count, and accepts a NetModel.
	LiveSharded
)

// LiveConfig parameterizes a fully message-level spreading run: the dating
// service's three-step handshake (scatter, answer, payload) executed peer
// by peer on a message engine. Nothing is shared between peers except
// messages; each peer's only state is whether it knows the rumor. This is
// the protocol exactly as a real deployment would run it.
type LiveConfig struct {
	Profile bandwidth.Profile
	// Selector defaults to uniform over the profile's nodes.
	Selector core.Selector
	Source   int
	// MaxDatingRounds caps the run (0 = generous log-based default).
	MaxDatingRounds int
}

// LiveOptions carries the axes of a stepped message-level run — live,
// topology or consensus — that are orthogonal to the protocol: the seed, the
// execution substrate, its worker count and the network model. Under
// repro.Run these come from the run options (liveOptionsFor); the Run*
// functions take them explicitly so direct callers state the same
// separation.
type LiveOptions struct {
	Seed uint64
	// Engine picks the substrate; the zero value is the goroutine engine.
	// (All engines share the sharded runtime's per-peer stream derivation,
	// so the engine choice never changes trajectories.)
	Engine LiveEngine
	// Concurrent selects the goroutine engine's concurrent mode (true) or
	// its sequential twin (false); both produce identical results for the
	// same seed. Ignored by the sharded engine, which always runs its
	// shard workers.
	Concurrent bool
	// Shards is the sharded engine's worker count (0 = GOMAXPROCS). The
	// run's results are bit-identical for every value: shards are a pure
	// speed knob.
	Shards int
	// Net plugs a network model — latency, loss, churn — into the sharded
	// engine; nil is the paper's perfect-sync model. The goroutine engine
	// rejects non-nil models.
	Net live.NetModel
	// Obs, when non-nil, receives phase spans and per-round gauges from the
	// sharded engine, plus the protocol's own gauges where it has any.
	// Observers are read-only: attaching one never changes results.
	Obs *obs.Observer
}

// liveOptionsFor maps the unified run options onto LiveOptions: the runtime
// seed derives from the root seed under the protocol's domain, WithEngine
// picks the substrate (default: the sharded runtime), WithWorkers sets the
// shard count and WithNet the network model.
func liveOptionsFor(o *run.Options, domain uint64) LiveOptions {
	lo := LiveOptions{Seed: run.SeedFor(o.Seed, domain), Net: o.Net, Obs: o.Obs}
	switch o.Engine {
	case run.EngineGoroutine:
		lo.Engine = LiveGoroutine
		lo.Concurrent = true
	default: // EngineDefault, EngineSharded
		lo.Engine = LiveSharded
		lo.Shards = o.Workers
	}
	return lo
}

// blocks returns how many shard-owned state blocks a protocol keeps over n
// peers: the sharded runtime's worker count, so that each block has exactly
// one writing worker (who can also keep the block's tally), and a single
// block on the goroutine engine.
func (o LiveOptions) blocks(n int) int {
	if o.Engine == LiveSharded {
		return live.EffectiveShards(n, o.Shards)
	}
	return 1
}

// runner builds the engine o selects over n peers and returns its round
// function; exactly one of step and active is set. The goroutine engine
// derives the per-peer streams exactly as the sharded runtime does and
// steps every peer whatever an active step answers — which is what makes it
// the differential oracle: goroutine, sequential and sharded runs of one
// seed are bit-identical under perfect sync, and a step that wrongly
// reports "asleep" diverges.
func (o LiveOptions) runner(n int, step live.StepFunc, active live.ActiveStepFunc) (func(rounds int) simnet.Stats, error) {
	switch o.Engine {
	case LiveGoroutine:
		if o.Net != nil {
			return nil, fmt.Errorf("gossip: network models require the sharded engine")
		}
		if active != nil {
			step = func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
				active(node, round, inbox, s, emit)
			}
		}
		streams := make([]*rng.Stream, n)
		for i := range streams {
			streams[i] = rng.New(live.PeerSeed(o.Seed, i))
		}
		eng, err := simnet.NewLiveWithStreams(streams, adaptStep(step))
		if err != nil {
			return nil, err
		}
		if o.Concurrent {
			return eng.Run, nil
		}
		return eng.RunSequential, nil
	case LiveSharded:
		rt, err := live.New(live.Config{
			N: n, Seed: o.Seed, Step: step, ActiveStep: active,
			Shards: o.Shards, Net: o.Net, Obs: o.Obs,
		})
		if err != nil {
			return nil, err
		}
		return rt.Run, nil
	}
	return nil, fmt.Errorf("gossip: unknown live engine %d", o.Engine)
}

// LiveResult reports a message-level spreading run.
type LiveResult struct {
	DatingRounds int
	Completed    bool
	History      []int // informed count after each dating round
	// SentHistory is the number of messages routed per dating round (the
	// three network rounds of the handshake; the first entry also counts
	// the prologue scatter).
	SentHistory []int
	// MaxInPayloads is the largest number of payload messages any node
	// received in one dating round; the dating service guarantees it never
	// exceeds that node's bin under the perfect-sync model (latency models
	// may bunch deliveries of adjacent rounds).
	MaxInPayloads int
	Traffic       simnet.Stats
}

// livePeerState is the per-peer protocol state. Peer i writes only index i
// of each slice, so concurrent peers never race; the engine's round barrier
// publishes the writes to the coordinator.
type livePeerState struct {
	informed   []bool
	inPayloads []int // payloads received in the current dating round
	// pendOffers/pendRequests buffer control messages that arrive outside
	// their handshake phase — possible only under latency models, so both
	// stay nil (and cost nothing) under perfect sync.
	pendOffers   [][]int32
	pendRequests [][]int32
}

// RunLive executes rumor spreading with the dating-service handshake on a
// live message engine.
func RunLive(cfg LiveConfig, o LiveOptions) (LiveResult, error) {
	n := cfg.Profile.N()
	if n == 0 {
		return LiveResult{}, fmt.Errorf("gossip: live run needs a profile")
	}
	if _, err := cfg.Profile.Ratio(); err != nil {
		return LiveResult{}, err
	}
	if cfg.Source < 0 || cfg.Source >= n {
		return LiveResult{}, fmt.Errorf("gossip: source %d out of range [0,%d)", cfg.Source, n)
	}
	sel := cfg.Selector
	if sel == nil {
		u, err := core.NewUniformSelector(n)
		if err != nil {
			return LiveResult{}, err
		}
		sel = u
	}
	if sel.N() != n {
		return LiveResult{}, fmt.Errorf("gossip: selector addresses %d nodes, profile has %d", sel.N(), n)
	}
	maxDating := cfg.MaxDatingRounds
	if maxDating <= 0 {
		maxDating = defaultRoundCap(n)
	}

	st := &livePeerState{
		informed:   make([]bool, n),
		inPayloads: make([]int, n),
	}
	if o.Net != nil && o.Net.MaxDelay() > 1 {
		// Latency can deliver offers and demands outside their phase; give
		// every rendezvous a holding buffer until its next matching round.
		st.pendOffers = make([][]int32, n)
		st.pendRequests = make([][]int32, n)
	}
	st.informed[cfg.Source] = true

	run, err := o.runner(n, liveEmitStep(cfg.Profile, sel, st), nil)
	if err != nil {
		return LiveResult{}, err
	}

	var res LiveResult
	// Prologue: the first scatter (phase 0 of dating round 1, no payloads
	// in flight yet). After it, every loop iteration runs phases 1 and 2 of
	// the current dating round plus phase 0 of the next, which absorbs the
	// payloads — so the informed count inspected after each iteration is
	// exact for that round.
	run(1)
	var prevSent int64
	for round := 1; round <= maxDating; round++ {
		for i := range st.inPayloads {
			st.inPayloads[i] = 0
		}
		res.Traffic = run(3)
		res.SentHistory = append(res.SentHistory, int(res.Traffic.Sent-prevSent))
		prevSent = res.Traffic.Sent
		count := 0
		for i := 0; i < n; i++ {
			if st.informed[i] {
				count++
			}
			if st.inPayloads[i] > res.MaxInPayloads {
				res.MaxInPayloads = st.inPayloads[i]
			}
		}
		res.DatingRounds = round
		res.History = append(res.History, count)
		if count == n {
			res.Completed = true
			break
		}
	}
	return res, nil
}

// liveEmitStep builds the per-peer handshake state machine, in the sharded
// runtime's emit form. Network round r is phase r % 3 of a dating round:
//
//	phase 0: scatter offers and receiving requests;
//	phase 1: act as rendezvous — match, answer offers with partner address;
//	phase 2: senders with a partner transmit the payload, carrying the
//	         rumor bit.
//
// Unlike the phase-switched legacy version, arrivals are handled by kind,
// whenever they come in: payloads are absorbed immediately, answers are
// acted on immediately, and offers/demands that miss their matching round
// (possible only under latency models) wait in the peer's pending buffers
// for the next one. Under the perfect-sync model every message arrives in
// its natural phase, so this reduces bit-for-bit to the legacy behavior.
func liveEmitStep(profile bandwidth.Profile, sel core.Selector, st *livePeerState) live.StepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
		// A rendezvous seldom has more than a handful of either kind: both
		// lists start on the stack and reach the heap only past that.
		var offerBuf, requestBuf [8]int32
		offers, requests := offerBuf[:0], requestBuf[:0]
		for _, m := range inbox {
			switch m.Kind {
			case core.KindPayload:
				st.inPayloads[node]++
				if m.A == 1 {
					st.informed[node] = true
				}
			case core.KindAnswer:
				if m.A >= 0 {
					rumor := int64(0)
					if st.informed[node] {
						rumor = 1
					}
					emit(simnet.Message{To: int(m.A), Kind: core.KindPayload, A: rumor})
				}
			case core.KindOffer:
				offers = append(offers, int32(m.From))
			case core.KindRequest:
				requests = append(requests, int32(m.From))
			}
		}

		switch round % 3 {
		case 0: // scatter
			for k := 0; k < profile.Out[node]; k++ {
				emit(simnet.Message{To: sel.Pick(s), Kind: core.KindOffer})
			}
			for k := 0; k < profile.In[node]; k++ {
				emit(simnet.Message{To: sel.Pick(s), Kind: core.KindRequest})
			}

		case 1: // rendezvous: match everything that made it here in time
			if st.pendOffers != nil {
				// Earlier arrivals first, then this round's, so the match
				// sees requests in arrival order. The merged slices alias
				// the pending backing arrays, which are cleared below and
				// not touched again until this call returns.
				offers = append(st.pendOffers[node], offers...)
				requests = append(st.pendRequests[node], requests...)
				st.pendOffers[node] = st.pendOffers[node][:0]
				st.pendRequests[node] = st.pendRequests[node][:0]
			}
			q := len(offers)
			if len(requests) < q {
				q = len(requests)
			}
			core.MatchRendezvous(offers, requests, s, func(sender, receiver int32) {
				emit(simnet.Message{To: int(sender), Kind: core.KindAnswer, A: int64(receiver)})
			})
			for _, o := range offers[q:] {
				emit(simnet.Message{To: int(o), Kind: core.KindAnswer, A: -1})
			}
			return
		}

		// Off-phase control arrivals (latency models only) wait for the
		// peer's next matching round.
		if len(offers) > 0 {
			st.pendOffers[node] = append(st.pendOffers[node], offers...)
		}
		if len(requests) > 0 {
			st.pendRequests[node] = append(st.pendRequests[node], requests...)
		}
	}
}

// adaptStep converts the emit-style step back to the slice-returning shape
// of the goroutine engine, so both substrates run the same protocol code.
func adaptStep(step live.StepFunc) simnet.StepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream) []simnet.Message {
		var out []simnet.Message
		step(node, round, inbox, s, func(m simnet.Message) { out = append(out, m) })
		return out
	}
}
