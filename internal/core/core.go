// Package core implements the paper's primary contribution: the
// heterogeneous dating service (Algorithm 1).
//
// In every round, each node i sends bout(i) "sending requests" (offers of a
// unit of outgoing bandwidth) and bin(i) "receiving requests" (demands for a
// unit of incoming bandwidth) to nodes drawn from a common selection
// distribution. Each node then acts as a rendezvous point for the requests
// it received: with s offers and r demands it keeps q = min(s, r) of each,
// chosen uniformly at random, produces a uniform random perfect matching
// between them, and answers each matched offer with the address of its
// partner. Matched pairs are "dates": sender/receiver pairs along which one
// unit-size message may flow without ever exceeding any node's bandwidth.
//
// The paper proves that with high probability a constant fraction of
// m = min(Bin, Bout) — everything a centralized matchmaker could arrange —
// is organized this way, for any common selection distribution (uniform:
// fraction ≈ 0.47; DHT-interval: ≥ 0.52 empirically).
package core

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/exch"
	"repro/internal/overlay"
	"repro/internal/par"
	"repro/internal/rng"
)

// Selector is the common selection distribution with which nodes address
// their requests. The paper's only requirement is that every node uses the
// same distribution for both request kinds within a round; it may change
// between rounds.
type Selector interface {
	// Pick returns the index of the node a request is addressed to. A
	// round's workers call it concurrently, each with its own stream, so it
	// must only read the selector's state.
	Pick(s *rng.Stream) int
	// N returns the number of addressable nodes.
	N() int
}

// UniformSelector picks nodes uniformly at random — the classical rumor
// spreading assumption the paper relaxes.
type UniformSelector struct{ n int }

// NewUniformSelector returns a uniform selector over n nodes.
func NewUniformSelector(n int) (UniformSelector, error) {
	if n <= 0 {
		return UniformSelector{}, fmt.Errorf("core: uniform selector needs n > 0, got %d", n)
	}
	return UniformSelector{n: n}, nil
}

// SelectorFor returns sel, or a uniform selector over n nodes when sel is
// nil — the default of every protocol config's Selector — checking that it
// addresses the protocol's n nodes.
func SelectorFor(sel Selector, n int) (Selector, error) {
	if sel == nil {
		return NewUniformSelector(n)
	}
	if sel.N() != n {
		return nil, fmt.Errorf("core: selector addresses %d nodes, the protocol has %d", sel.N(), n)
	}
	return sel, nil
}

// Pick implements Selector.
func (u UniformSelector) Pick(s *rng.Stream) int { return s.Intn(u.n) }

// N implements Selector.
func (u UniformSelector) N() int { return u.n }

// WeightedSelector picks node i with probability proportional to an
// arbitrary weight vector, via an O(1) alias table. It models any skewed
// selection distribution (Zipf popularity, two-point masses, measured DHT
// interval weights).
type WeightedSelector struct{ table *rng.Alias }

// NewWeightedSelector builds a selector from non-negative weights.
func NewWeightedSelector(weights []float64) (WeightedSelector, error) {
	t, err := rng.NewAlias(weights)
	if err != nil {
		return WeightedSelector{}, err
	}
	return WeightedSelector{table: t}, nil
}

// Pick implements Selector.
func (w WeightedSelector) Pick(s *rng.Stream) int { return w.table.Sample(s) }

// N implements Selector.
func (w WeightedSelector) N() int { return w.table.N() }

// RingSelector selects the DHT node responsible for a uniformly random
// point — the exact distribution of Section 4 of the paper: each node is
// chosen with probability equal to its arc length.
type RingSelector struct{ ring *overlay.Ring }

// NewRingSelector wraps a DHT ring as a selection distribution.
func NewRingSelector(r *overlay.Ring) (RingSelector, error) {
	if r == nil {
		return RingSelector{}, fmt.Errorf("core: ring selector needs a ring")
	}
	return RingSelector{ring: r}, nil
}

// Pick implements Selector.
func (rs RingSelector) Pick(s *rng.Stream) int { return rs.ring.PickOwner(s) }

// N implements Selector.
func (rs RingSelector) N() int { return rs.ring.N() }

// Date is one arranged communication: Sender may transfer one unit-size
// message to Receiver this round. The ids are int32, as everywhere in the
// engine (a round holds fewer than 2^31 nodes), so a date takes 8 bytes.
type Date struct {
	Sender   int32
	Receiver int32
}

// RoundResult reports one dating-service round.
type RoundResult struct {
	Dates []Date // the arranged communications
	// OffersSent and RequestsSent count the control messages of the round
	// (Bout and Bin respectively when all nodes participate).
	OffersSent   int
	RequestsSent int
}

// PerNode counts, over n nodes, the matched outgoing and incoming units of
// each: the capacity invariant is out[i] <= bout(i) and in[i] <= bin(i),
// always. It is counted from Dates on demand — no round pays for it.
func (r RoundResult) PerNode(n int) (out, in []int) {
	out, in = make([]int, n), make([]int, n)
	for _, d := range r.Dates {
		out[d.Sender]++
		in[d.Receiver]++
	}
	return out, in
}

// Fraction returns len(Dates)/m, the figure-of-merit of Figure 1.
func (r RoundResult) Fraction(m int) float64 {
	if m <= 0 {
		return 0
	}
	return float64(len(r.Dates)) / float64(m)
}

// Service runs dating-service rounds for a fixed bandwidth profile and
// selection distribution. A Service reuses internal scratch buffers between
// rounds and therefore runs one round at a time: do not call its methods
// concurrently. The seeded rounds parallelize *inside* a round with worker
// goroutines the Service manages itself.
type Service struct {
	profile bandwidth.Profile
	sel     Selector
	eng     engine // round scratch, reused across rounds (see engine.go)
	cut     []int  // sender shards of an unfiltered round, see senderCuts
	shared  []Date // RunRoundShared's date buffer, overwritten by its next round
}

// NewService validates the configuration and returns a Service. The profile
// must have positive bandwidths, match the selector's node count and total
// at most math.MaxInt32 units each way (the engine's offsets are int32).
func NewService(p bandwidth.Profile, sel Selector) (*Service, error) {
	if sel == nil {
		return nil, fmt.Errorf("core: service needs a selector")
	}
	if _, err := p.Ratio(); err != nil {
		return nil, err
	}
	if p.N() != sel.N() {
		return nil, fmt.Errorf("core: profile has %d nodes but selector addresses %d", p.N(), sel.N())
	}
	if err := indexable(p.N(), p.Out, p.In); err != nil {
		return nil, err
	}
	// shared starts empty, not nil: nil asks the engine for a fresh slice.
	return &Service{profile: p, sel: sel, shared: []Date{}}, nil
}

// Profile returns the service's bandwidth profile.
func (sv *Service) Profile() bandwidth.Profile { return sv.profile }

// N returns the number of nodes.
func (sv *Service) N() int { return sv.profile.N() }

// M returns m = min(Bin, Bout), the centralized optimum per round.
func (sv *Service) M() int { return sv.profile.M() }

// RunRoundSeeded executes Algorithm 1 once with per-node/per-rendezvous
// derived randomness: the result is bit-for-bit identical for every
// workers >= 1, so parallelism never changes published numbers — and it
// arranges exactly the dates of Arranger.Arrange(profile.Out, profile.In,
// seed, ·). seed alone selects the round's randomness (use a fresh seed per
// round, e.g. drawn off a run stream).
func (sv *Service) RunRoundSeeded(seed uint64, workers int) (RoundResult, error) {
	dates, err := sv.seeded(nil, seed, workers, nil)
	if err != nil {
		return RoundResult{}, err
	}
	return sv.result(dates), nil
}

// seeded runs one seeded round, appending its dates to dst (the engine's
// buffer contract: nil is a fresh slice). alive is an optional liveness
// predicate: crashed nodes neither emit requests nor act as rendezvous
// points, and requests addressed to them are lost, as a dead rendezvous of
// a real overlay never answers. alive is called concurrently from all
// workers, so it must be a pure read of state that does not change during
// the round. Every node draws from its own derived stream, so the survivors'
// randomness does not depend on who crashed, nor on the worker count.
func (sv *Service) seeded(dst []Date, seed uint64, workers int, alive func(i int) bool) ([]Date, error) {
	if err := checkWorkers(workers); err != nil {
		return nil, err
	}
	return sv.eng.round(dst, sv.sel, sv.profile.Out, sv.profile.In, alive, sv.senderCuts(workers, alive), seed, workers), nil
}

// RunRoundShared runs one seeded round under the liveness predicate alive
// (nil: everyone is alive; see seeded), drawing its worker count from a
// shared budget: the round runs with the caller's
// worker plus whatever spare tokens b has at this moment, released when the
// round is done. Since a seeded round is worker-count independent, whatever
// the pool hands out is a pure speed knob. A nil budget runs serially.
//
// This is the spreading protocols' round, so it allocates nothing
// proportional to n: the dates live in a buffer the Service keeps and are
// valid until its next RunRoundShared.
func (sv *Service) RunRoundShared(seed uint64, b *par.Budget, alive func(i int) bool) (dates []Date, err error) {
	b.Use(0, func(workers int) {
		if dates, err = sv.seeded(sv.shared[:0], seed, workers, alive); err == nil {
			sv.shared = dates
		}
	})
	return dates, err
}

// senderCuts returns the sender shards to scatter a round by. With everyone
// alive they are cuts by profile weight (scatterWeight), which is fixed, so
// they are kept until the worker count changes; under churn it is nil, and
// the engine balances by the round's live weight.
func (sv *Service) senderCuts(workers int, alive func(i int) bool) []int {
	if alive != nil {
		return nil
	}
	if len(sv.cut) != workers+1 {
		p := sv.profile
		sv.cut = exch.BalancedCuts(sv.cut, p.N(), workers, func(i int) int { return scatterWeight(p.Out[i], p.In[i]) })
	}
	return sv.cut
}

// result wraps the dates of the round the engine just ran: the control
// message counters are the requests that reached a rendezvous.
func (sv *Service) result(dates []Date) RoundResult {
	n := sv.profile.N()
	return RoundResult{
		Dates:        dates,
		OffersSent:   int(sv.eng.offerOff[n]),
		RequestsSent: int(sv.eng.reqOff[n]),
	}
}

// MatchRendezvous implements the rendezvous step of Algorithm 1 for one
// node: keep q = min(len(offers), len(requests)) requests of each kind
// chosen uniformly at random and emit a uniform random perfect matching
// between them. Both input slices are shuffled in place.
//
// Shuffling each list fully and pairing the first q elements is equivalent
// to (uniform q-subset of offers) x (uniform q-subset of requests) x
// (uniform bijection), which is the distribution the paper's Lemma 3
// requires.
func MatchRendezvous(offers, requests []int32, s *rng.Stream, emit func(sender, receiver int32)) {
	q := len(offers)
	if len(requests) < q {
		q = len(requests)
	}
	if q == 0 {
		return
	}
	shuffleInt32(offers, s)
	shuffleInt32(requests, s)
	for j := 0; j < q; j++ {
		emit(offers[j], requests[j])
	}
}

func shuffleInt32(p []int32, s *rng.Stream) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
