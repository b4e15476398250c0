package gossip

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/rng"
	"repro/internal/run"
	"repro/internal/simnet"
)

// LiveConfig parameterizes a fully message-level spreading run: the dating
// service's three-step handshake (scatter, answer, payload) executed peer
// by peer on the round runtime. Nothing is shared between peers except
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

// LiveResult reports a message-level spreading run; Rounds counts dating
// rounds, each three network rounds of the handshake.
type LiveResult struct {
	Stepped
	// MaxInPayloads is the largest number of payload messages any node
	// received in one dating round; the dating service guarantees it never
	// exceeds that node's bin under the perfect-sync model (latency models
	// may bunch deliveries of adjacent rounds).
	MaxInPayloads int
}

func (r LiveResult) report(detail any) run.Report {
	rep := r.Stepped.report(detail)
	rep.MaxInLoad = r.MaxInPayloads
	return rep
}

// liveState is the per-peer protocol state: state 1 of peerStates is
// "informed". Peer i writes only index i of each slice.
type liveState struct {
	peerStates
	inPayloads []int32 // payloads received in the current dating round
	maxIn      []int32 // the most payloads received in any one dating round
	// pendOffers/pendRequests buffer control messages that arrive outside
	// their handshake phase — possible only under latency models, so both
	// stay nil (and cost nothing) under perfect sync.
	pendOffers   [][]int32
	pendRequests [][]int32
}

// newLiveState builds the state of n peers, none informed, with pending
// buffers when latency can deliver control messages out of phase.
func newLiveState(n int, pending bool) *liveState {
	st := &liveState{peerStates: newPeerStates(n), inPayloads: make([]int32, n), maxIn: make([]int32, n)}
	if pending {
		st.pendOffers = make([][]int32, n)
		st.pendRequests = make([][]int32, n)
	}
	return st
}

// RunLive executes rumor spreading with the dating-service handshake on the
// round runtime.
func RunLive(cfg LiveConfig, o LiveOptions) (LiveResult, error) {
	return runLive(cfg, o, roundClock)
}

func runLive(cfg LiveConfig, o LiveOptions, clk clock) (LiveResult, error) {
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
	sel, err := selectorFor(cfg.Selector, n)
	if err != nil {
		return LiveResult{}, err
	}
	maxDating := cfg.MaxDatingRounds
	if maxDating <= 0 {
		maxDating = defaultRoundCap(n)
	}

	// Latency can deliver offers and demands outside their phase; then every
	// rendezvous gets a holding buffer until its next matching round.
	st := newLiveState(n, o.Net != nil && o.Net.MaxDelay() > 1)
	tick, cuts, err := clk(n, o, liveEmitStep(cfg.Profile, sel, st), nil)
	if err != nil {
		return LiveResult{}, err
	}
	st.key(cuts, 1)
	st.set(cfg.Source, 1)

	// Prologue: the first scatter (phase 0 of dating round 1, no payloads
	// in flight yet). After it, every round runs phases 1 and 2 of the
	// current dating round plus phase 0 of the next, which absorbs the
	// payloads — so the informed count inspected after each round is exact
	// for that round.
	res := LiveResult{Stepped: drive(tick, 1, 3, maxDating, nil, func(int) (int, bool) {
		informed := st.count(1)
		return informed, informed == n
	})}
	for _, m := range st.maxIn {
		res.MaxInPayloads = max(res.MaxInPayloads, int(m))
	}
	return res, nil
}

// selectorFor returns sel, or a uniform selector when it is nil, checking
// that it addresses the protocol's n peers.
func selectorFor(sel core.Selector, n int) (core.Selector, error) {
	if sel == nil {
		u, err := core.NewUniformSelector(n)
		return u, err
	}
	if sel.N() != n {
		return nil, fmt.Errorf("gossip: selector addresses %d nodes, profile has %d", sel.N(), n)
	}
	return sel, nil
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
func liveEmitStep(profile bandwidth.Profile, sel core.Selector, st *liveState) live.StepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
		if round%3 == 1 {
			// A dating round's first network round: every peer is stepped
			// every round, so this is where its payload count restarts.
			st.inPayloads[node] = 0
		}
		// A rendezvous seldom has more than a handful of either kind: both
		// lists start on the stack and reach the heap only past that.
		var offerBuf, requestBuf [8]int32
		offers, requests := offerBuf[:0], requestBuf[:0]
		for _, m := range inbox {
			switch m.Kind {
			case core.KindPayload:
				st.inPayloads[node]++
				st.maxIn[node] = max(st.maxIn[node], st.inPayloads[node])
				if m.A == 1 {
					st.set(node, 1)
				}
			case core.KindAnswer:
				if m.A >= 0 {
					emit(simnet.Message{To: int(m.A), Kind: core.KindPayload, A: int64(st.of[node])})
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
