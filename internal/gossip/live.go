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

// Message kinds of the dating handshake. The paper's overhead claim —
// control messages carry about one IP address — corresponds to the single
// address word these messages use.
const (
	KindOffer   uint8 = 1 // sending request: "I can send one unit"
	KindRequest uint8 = 2 // receiving request: "I can receive one unit"
	KindAnswer  uint8 = 3 // rendezvous answer to an offer; A = receiver or -1
	KindPayload uint8 = 4 // the actual unit-size message
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
}

// HandshakeConfig parameterizes the dating service on its own: Rounds
// dating rounds of the same handshake on the same runtime, with no rumor
// riding the payloads. It makes the paper's overhead model measurable: the
// run's traffic is every control message and every payload.
type HandshakeConfig struct {
	// Profile holds the per-node bandwidths; required.
	Profile bandwidth.Profile
	// Selector defaults to uniform over the profile's nodes.
	Selector core.Selector
	// Rounds is the number of dating rounds to scatter (each costing three
	// network rounds); 0 means 10. Under a latency model rounds overlap,
	// and a date counts in the dating round whose network rounds accepted
	// its payload; after the last round the run drains — ticks on until
	// nothing is in flight or pending — and the drain counts toward the
	// last round.
	Rounds int
}

// LiveResult reports a handshake run; Rounds counts dating rounds, each
// three network rounds. A spread (LiveConfig) reports its informed peers
// in History and its traffic per dating round in SentHistory. A bare
// handshake (HandshakeConfig) reports the dates of each dating round in
// SentHistory and their running total in History: a date counts in the
// dating round whose network rounds accepted its payload (see
// HandshakeConfig.Rounds), so History's last entry is every date the run
// arranged. Traffic.Rounds is the network rounds run, the drain included:
// 3·Rounds + 1 under perfect sync.
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

// pending reports whether any rendezvous holds an offer or request that
// still waits for a matching round; called between ticks.
func (st *liveState) pending() bool {
	for i := range st.pendOffers {
		if len(st.pendOffers[i]) > 0 || len(st.pendRequests[i]) > 0 {
			return true
		}
	}
	return false
}

// maxInPayloads returns the most payloads any peer received in one dating
// round; called after the run.
func (st *liveState) maxInPayloads() int {
	m := int32(0)
	for _, v := range st.maxIn {
		m = max(m, v)
	}
	return int(m)
}

// startHandshake validates a handshake over profile and sel (nil =
// uniform) that scatters for dating rounds 1..rounds, and builds its peer
// state and its runtime on clk, returning the runtime's ticker and
// in-flight count. Nothing has ticked yet: the caller drives the prologue
// scatter (network round 0), then three ticks per dating round — phases 1
// and 2 of that round and phase 0 of the next, which absorbs its payloads.
func startHandshake(profile bandwidth.Profile, sel core.Selector, rounds int, o liveOptions, clk clock) (*liveState, ticker, func() int, error) {
	n := profile.N()
	if n == 0 {
		return nil, nil, nil, fmt.Errorf("gossip: dating handshake needs a profile")
	}
	if _, err := profile.Ratio(); err != nil {
		return nil, nil, nil, err
	}
	sel, err := core.SelectorFor(sel, n)
	if err != nil {
		return nil, nil, nil, err
	}
	// Latency can deliver offers and demands outside their phase; then every
	// rendezvous gets a holding buffer until its next matching round.
	st := newLiveState(n, o.Net != nil && o.Net.MaxDelay() > 1)
	tick, inFlight, cuts, err := clk(n, o, liveEmitStep(profile, sel, st, rounds), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	st.key(cuts, 1)
	return st, tick, inFlight, nil
}

// runLive executes rumor spreading with the dating-service handshake on
// clk: the round runtime (roundClock) in production, the oracle in tests.
func runLive(cfg LiveConfig, o liveOptions, clk clock) (LiveResult, error) {
	// The source is checked before startHandshake builds any peer state or
	// runtime; an empty profile is left to startHandshake's own error.
	n := cfg.Profile.N()
	if n > 0 && (cfg.Source < 0 || cfg.Source >= n) {
		return LiveResult{}, fmt.Errorf("gossip: source %d out of range [0,%d)", cfg.Source, n)
	}
	maxDating := defaultRoundCap(n)
	st, tick, _, err := startHandshake(cfg.Profile, cfg.Selector, maxDating, o, clk)
	if err != nil {
		return LiveResult{}, err
	}
	st.set(cfg.Source, 1)

	// The informed count inspected after each dating round is exact for
	// that round: its last tick absorbed the round's payloads.
	res := LiveResult{Stepped: drive(tick, 1, 3, maxDating, nil, func(int) (int, bool) {
		informed := st.count(1)
		return informed, informed == n
	})}
	res.MaxInPayloads = st.maxInPayloads()
	return res, nil
}

// runHandshake executes cfg.Rounds dating rounds of the bare handshake on
// clk: every payload carries state 0, so peers only date. After the last
// dating round it drains: it ticks on until no message is in flight and no
// rendezvous holds a pending offer or request, so every date the scatters
// arranged is counted, in the last dating round. Under perfect sync both
// already hold when that round ends, so the drain adds no tick.
func runHandshake(cfg HandshakeConfig, o liveOptions, clk clock) (LiveResult, error) {
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 10
	}
	st, tick, inFlight, err := startHandshake(cfg.Profile, cfg.Selector, rounds, o, clk)
	if err != nil {
		return LiveResult{}, err
	}
	var traffic simnet.Stats
	count := func(ticks int) simnet.Stats {
		traffic = tick(ticks)
		return traffic
	}
	res := LiveResult{Stepped: drive(count, 1, 3, rounds, nil, func(r int) (int, bool) {
		for r == rounds && (inFlight() > 0 || st.pending()) {
			count(1)
		}
		return int(traffic.ByKind[KindPayload]), r == rounds
	})}
	res.Traffic = traffic
	// A dating round's sent count is its dates, not its traffic.
	prev := 0
	for r, total := range res.History {
		res.SentHistory[r], prev = total-prev, total
	}
	res.MaxInPayloads = st.maxInPayloads()
	return res, nil
}

// liveEmitStep builds the per-peer handshake state machine, in the sharded
// runtime's emit form. Network round r is phase r % 3 of dating round
// r/3 + 1:
//
//	phase 0: scatter offers and receiving requests, in dating rounds
//	         1..rounds only;
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
func liveEmitStep(profile bandwidth.Profile, sel core.Selector, st *liveState, rounds int) live.StepFunc {
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
		for k := range inbox {
			m := &inbox[k]
			switch m.Kind {
			case KindPayload:
				st.inPayloads[node]++
				st.maxIn[node] = max(st.maxIn[node], st.inPayloads[node])
				if m.A == 1 {
					st.set(node, 1)
				}
			case KindAnswer:
				if m.A >= 0 {
					emit(simnet.Message{To: int(m.A), Kind: KindPayload, A: int32(st.of[node])})
				}
			case KindOffer:
				offers = append(offers, int32(m.From))
			case KindRequest:
				requests = append(requests, int32(m.From))
			}
		}

		switch round % 3 {
		case 0: // scatter, unless the run ends before this dating round
			if round/3 >= rounds {
				break
			}
			for k := 0; k < profile.Out[node]; k++ {
				emit(simnet.Message{To: sel.Pick(s), Kind: KindOffer})
			}
			for k := 0; k < profile.In[node]; k++ {
				emit(simnet.Message{To: sel.Pick(s), Kind: KindRequest})
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
				emit(simnet.Message{To: int(sender), Kind: KindAnswer, A: receiver})
			})
			for _, o := range offers[q:] {
				emit(simnet.Message{To: int(o), Kind: KindAnswer, A: -1})
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
