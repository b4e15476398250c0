package core

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// Message kinds of the decentralized dating handshake. The paper's overhead
// claim — control messages carry about one IP address — corresponds to the
// single int64 address word these messages use.
const (
	KindOffer   uint8 = 1 // sending request: "I can send one unit"
	KindRequest uint8 = 2 // receiving request: "I can receive one unit"
	KindAnswer  uint8 = 3 // rendezvous answer to an offer; A = receiver or -1
	KindPayload uint8 = 4 // the actual unit-size message
)

// Handshake executes dating-service rounds as an explicit message protocol
// on a simnet.Network, one goroutine-free state machine per node. Each
// dating round costs three network rounds (scatter, answer, payload),
// exposing the real control-message overhead that the flat RunRound hides.
type Handshake struct {
	profile bandwidth.Profile
	sel     Selector
	streams []*rng.Stream
}

// NewHandshake builds a message-level dating service. The per-node streams
// are derived from seed, so a Handshake run is reproducible.
func NewHandshake(p bandwidth.Profile, sel Selector, seed uint64) (*Handshake, error) {
	if sel == nil {
		return nil, fmt.Errorf("core: handshake needs a selector")
	}
	if _, err := p.Ratio(); err != nil {
		return nil, err
	}
	if p.N() != sel.N() {
		return nil, fmt.Errorf("core: profile has %d nodes but selector addresses %d", p.N(), sel.N())
	}
	return &Handshake{
		profile: p,
		sel:     sel,
		streams: rng.NewStreams(seed, p.N()),
	}, nil
}

// RunRound performs one full dating round (three network rounds) on nw and
// returns the dates realized by delivered payload messages. Crashed nodes
// drop out naturally: the network discards their traffic.
func (h *Handshake) RunRound(nw *simnet.Network) ([]Date, error) {
	n := h.profile.N()
	if nw.N() != n {
		return nil, fmt.Errorf("core: network has %d nodes, profile has %d", nw.N(), n)
	}

	// Network round 1: scatter offers and demands.
	for i := 0; i < n; i++ {
		if !nw.Alive(i) {
			continue
		}
		s := h.streams[i]
		for k := 0; k < h.profile.Out[i]; k++ {
			nw.Send(simnet.Message{From: i, To: h.sel.Pick(s), Kind: KindOffer})
		}
		for k := 0; k < h.profile.In[i]; k++ {
			nw.Send(simnet.Message{From: i, To: h.sel.Pick(s), Kind: KindRequest})
		}
	}
	nw.Deliver()

	// Network round 2: every rendezvous matches and answers the offers.
	for v := 0; v < n; v++ {
		if !nw.Alive(v) {
			continue
		}
		var offerBuf, requestBuf [8]int32 // on the stack: the heap only past a handful
		offers, requests := offerBuf[:0], requestBuf[:0]
		for _, m := range nw.Inbox(v) {
			switch m.Kind {
			case KindOffer:
				offers = append(offers, int32(m.From))
			case KindRequest:
				requests = append(requests, int32(m.From))
			}
		}
		q := len(offers)
		if len(requests) < q {
			q = len(requests)
		}
		MatchRendezvous(offers, requests, h.streams[v], func(sender, receiver int32) {
			nw.Send(simnet.Message{From: v, To: int(sender), Kind: KindAnswer, A: receiver})
		})
		// Algorithm 1 answers every offer, matched or not; unmatched offers
		// learn that sending is not possible this round.
		for _, o := range offers[q:] {
			nw.Send(simnet.Message{From: v, To: int(o), Kind: KindAnswer, A: -1})
		}
	}
	nw.Deliver()

	// Network round 3: matched senders transfer the payload.
	for i := 0; i < n; i++ {
		if !nw.Alive(i) {
			continue
		}
		for _, m := range nw.Inbox(i) {
			if m.Kind == KindAnswer && m.A >= 0 {
				nw.Send(simnet.Message{From: i, To: int(m.A), Kind: KindPayload})
			}
		}
	}
	nw.Deliver()

	// Collect the dates that actually completed.
	var dates []Date
	for v := 0; v < n; v++ {
		for _, m := range nw.Inbox(v) {
			if m.Kind == KindPayload {
				dates = append(dates, Date{Sender: m.From, Receiver: v})
			}
		}
	}
	return dates, nil
}
