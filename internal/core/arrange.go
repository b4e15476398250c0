package core

// This file implements the supply/demand entry point of the dating service
// (ArrangeDates) on the flat counting-sort engine of engine.go. It replaces
// the seed's per-node append scatter — one heap-allocated slice per
// rendezvous, rebuilt every round — which survived here after the Service
// round path moved to the engine.
//
// Unlike Service.RunRoundParallel, whose output is a function of
// (seed, workers), an Arranger's output is a pure function of
// (supply, demand, selector, seed) alone: randomness is not drawn from one
// stream per worker but from short-lived streams derived with SplitMix64
// per *unit of work* — one stream per requesting node in the scatter pass
// (rng.Derive(seed, domainScatter, node)) and one per rendezvous bucket in
// the match pass (rng.Derive(seed, domainMatch, rendezvous)). Whichever
// worker happens to process a node or bucket therefore draws exactly the
// same values, so Workers=k is bit-for-bit identical to Workers=1 under any
// goroutine schedule. Storage and churn experiments rely on this: they can
// turn the Workers knob without changing a single published number.

import (
	"fmt"

	"repro/internal/exch"
	"repro/internal/par"
	"repro/internal/rng"
)

// Derivation domains keep the scatter and match randomness of one round
// disjoint even when a node id equals a rendezvous id.
const (
	domainScatter uint64 = 1
	domainMatch   uint64 = 2
)

// arrangeWorker extends the engine's per-worker scratch with a reseedable
// generator: the worker reseeds it for every node (scatter) or bucket
// (match) it processes, which costs four SplitMix64 steps — far cheaper
// than allocating a stream per unit of work.
type arrangeWorker struct {
	workerScratch
	gen    *rng.Xoshiro256
	stream *rng.Stream
}

// Arranger runs dating rounds directly from per-node supply and demand
// vectors, reusing scratch buffers across rounds. Like Service, an Arranger
// runs one round at a time — do not call Arrange concurrently; parallelism
// happens *inside* a round via the workers argument.
type Arranger struct {
	sel Selector

	ws         []arrangeWorker
	offers     exchInt32
	reqs       exchInt32
	offerOff   []int32 // len n+1: offers bucket v is offersFlat[offerOff[v]:offerOff[v+1]]
	reqOff     []int32
	offersFlat []int32
	reqFlat    []int32
	senderCut  []int // recomputed every round: supply/demand change between rounds
	rdvCut     []int
}

// NewArranger returns an Arranger over the given selection distribution.
func NewArranger(sel Selector) (*Arranger, error) {
	if sel == nil {
		return nil, fmt.Errorf("core: arranger needs a selector")
	}
	return &Arranger{sel: sel}, nil
}

// N returns the number of addressable nodes.
func (a *Arranger) N() int { return a.sel.N() }

// ArrangeShared is Arrange drawing its worker count from a shared budget:
// the round runs with the caller's worker plus whatever spare tokens b has
// at this moment, released when the round is done. Because Arrange is
// worker-count independent, whatever the pool hands out is a pure speed
// knob. A nil budget arranges serially.
func (a *Arranger) ArrangeShared(out, in []int, seed uint64, b *par.Budget) (dates []Date, err error) {
	b.Use(0, func(workers int) {
		dates, err = a.Arrange(out, in, seed, workers)
	})
	return dates, err
}

// Arrange runs one dating-service round: out[i] offers (units node i wants
// to send) and in[i] requests (units node i can absorb), both of which may
// be zero — protocols such as replicated storage have fluctuating per-round
// demand, and a node with nothing to offer simply stays silent that round.
// The paper's abstract description covers this directly: the service
// "randomly joins demands and supplies of some resource into couples".
//
// Entries must be non-negative and both slices must have the selector's
// length. Dates never exceed out[i]/in[i] for any node, and are returned in
// rendezvous order. The result is bit-for-bit identical for every workers
// count >= 1; seed alone selects the round's randomness.
func (a *Arranger) Arrange(out, in []int, seed uint64, workers int) ([]Date, error) {
	n := a.sel.N()
	if workers < 1 {
		return nil, fmt.Errorf("core: arrange needs workers >= 1, got %d", workers)
	}
	if len(out) != n || len(in) != n {
		return nil, fmt.Errorf("core: supply/demand vectors (%d/%d) must match selector size %d", len(out), len(in), n)
	}
	for i := 0; i < n; i++ {
		if out[i] < 0 || in[i] < 0 {
			return nil, fmt.Errorf("core: negative supply/demand at node %d", i)
		}
	}
	// Force lazily-built selector state (e.g. a churned ring snapshot) into
	// place before any fanout, so Pick is a pure read on every worker.
	if p, ok := a.sel.(Preparer); ok {
		if err := p.Prepare(); err != nil {
			return nil, fmt.Errorf("core: selector prepare failed: %w", err)
		}
	}
	a.ensure(n, workers)

	// Scatter: worker w draws destinations for its node shard, one derived
	// stream per node, recording each pair into the chunk of the
	// destination's owner. Shards are balanced by the round's request
	// weight; the cuts only affect which worker does the work, never the
	// draws.
	a.senderCut = exch.BalancedCuts(a.senderCut, n, workers, func(i int) int { return out[i] + in[i] })
	runPhase(workers, func(w int) {
		ws := &a.ws[w]
		ws.reset()
		a.offers.ClearWorker(w)
		a.reqs.ClearWorker(w)
		for i := a.senderCut[w]; i < a.senderCut[w+1]; i++ {
			if out[i] == 0 && in[i] == 0 {
				continue
			}
			ws.gen.Seed(rng.Derive(seed, domainScatter, uint64(i)))
			for k := 0; k < out[i]; k++ {
				dest := a.sel.Pick(ws.stream)
				a.offers.Record(w, int32(dest), int32(i))
			}
			for k := 0; k < in[i]; k++ {
				dest := a.sel.Pick(ws.stream)
				a.reqs.Record(w, int32(dest), int32(i))
			}
		}
	})

	// Exchange + sort: counting-sort the recorded requests into one
	// contiguous buffer per kind, every bucket in global sender order (see
	// sortPairs in engine.go).
	a.offersFlat, a.reqFlat = sortPairs(n, workers, &a.offers, &a.reqs,
		a.offerOff, a.reqOff, a.offersFlat, a.reqFlat)

	// Match: shard rendezvous nodes by bucket size, one derived stream per
	// bucket. Buckets where either side is empty arrange nothing and consume
	// no randomness, so they are skipped outright.
	a.rdvCut = exch.BalancedCuts(a.rdvCut, n, workers, func(v int) int {
		return int(a.offerOff[v+1]-a.offerOff[v]) + int(a.reqOff[v+1]-a.reqOff[v])
	})
	runPhase(workers, func(w int) {
		ws := &a.ws[w]
		emit := func(sender, receiver int32) {
			ws.dates = append(ws.dates, Date{Sender: int(sender), Receiver: int(receiver)})
		}
		for v := a.rdvCut[w]; v < a.rdvCut[w+1]; v++ {
			offers := a.offersFlat[a.offerOff[v]:a.offerOff[v+1]]
			requests := a.reqFlat[a.reqOff[v]:a.reqOff[v+1]]
			if len(offers) == 0 || len(requests) == 0 {
				continue
			}
			ws.gen.Seed(rng.Derive(seed, domainMatch, uint64(v)))
			MatchRendezvous(offers, requests, ws.stream, emit)
		}
	})

	// Merge: per-worker buffers hold contiguous ascending rendezvous ranges,
	// so concatenating in worker order yields rendezvous order — the same
	// sequence for every worker count.
	total := 0
	for w := 0; w < workers; w++ {
		total += len(a.ws[w].dates)
	}
	dates := make([]Date, 0, total)
	for w := 0; w < workers; w++ {
		dates = append(dates, a.ws[w].dates...)
	}
	return dates, nil
}

// ensure sizes the scratch for an (n, workers) round.
func (a *Arranger) ensure(n, workers int) {
	for len(a.ws) < workers {
		gen := rng.NewXoshiro256(0)
		a.ws = append(a.ws, arrangeWorker{gen: gen, stream: rng.NewWithSource(gen)})
	}
	if len(a.offerOff) != n+1 {
		a.offerOff = make([]int32, n+1)
		a.reqOff = make([]int32, n+1)
	}
	part := exch.Partition{N: n, Parts: workers}
	a.offers.Reset(workers, part)
	a.reqs.Reset(workers, part)
}

// ArrangeDates is the one-shot convenience form of Arranger.Arrange: it
// draws the round seed from s (advancing it by exactly one value) and runs
// serially without scratch reuse. Hot paths that arrange every round —
// storage, churning-DHT spreading — should hold an Arranger instead.
func ArrangeDates(out, in []int, sel Selector, s *rng.Stream) ([]Date, error) {
	a, err := NewArranger(sel)
	if err != nil {
		return nil, err
	}
	return a.Arrange(out, in, s.Uint64(), 1)
}
