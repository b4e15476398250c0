package core

// This file implements the seeded round path: Algorithm 1 on the flat
// engine of engine.go, with the Arranger's worker-count-independent
// randomness scheme ported to the profile round path.
//
// Where RunRoundParallel draws from one stream per worker — making its
// output a function of (seed, workers) — a seeded round derives a
// short-lived stream per *unit of work*: rng.Derive(seed, domainScatter,
// node) for a node's request scatter and rng.Derive(seed, domainMatch,
// rendezvous) for a rendezvous's matching, the exact scheme of
// Arranger.Arrange (same domain tags, same derivation). Whichever worker
// happens to process a node or bucket therefore draws the same values, and
// the round is a pure function of (profile, selector, seed, alive):
// workers is a pure speed knob. In particular, an unfiltered seeded round
// arranges exactly the dates of Arranger.Arrange(profile.Out, profile.In,
// seed, ·) — the test suite pins that equivalence.
//
// The price is reseeding a xoshiro generator once per participating node
// and once per non-empty rendezvous bucket: a two-step Derive chain plus a
// four-step SplitMix64 state expansion each, roughly six extra SplitMix64
// steps per node per round in total. Measured cost: about 25% on a
// unit-bandwidth uniform round at n=100k with one worker (12.3ms vs 8.0ms
// serial-stream); BenchmarkSeededRound tracks it.

import (
	"fmt"

	"repro/internal/exch"
	"repro/internal/par"
	"repro/internal/rng"
)

// RunRoundShared is RunRoundSeeded drawing its worker count from a shared
// budget: the round runs with the caller's worker plus whatever spare
// tokens b has at this moment, released when the round is done. Since the
// seeded path is worker-count independent, whatever the pool hands out is
// a pure speed knob. A nil budget runs serially.
func (sv *Service) RunRoundShared(seed uint64, b *par.Budget) (RoundResult, error) {
	return sv.RunRoundSharedFiltered(seed, b, nil)
}

// RunRoundSharedFiltered is RunRoundShared with the liveness predicate of
// RunRoundSeededFiltered.
func (sv *Service) RunRoundSharedFiltered(seed uint64, b *par.Budget, alive func(i int) bool) (res RoundResult, err error) {
	b.Use(0, func(workers int) {
		res, err = sv.RunRoundSeededFiltered(seed, workers, alive)
	})
	return res, err
}

// RunRoundSeeded executes Algorithm 1 once with per-node/per-rendezvous
// derived randomness: the result is bit-for-bit identical for every
// workers >= 1, so parallelism never changes published numbers. seed alone
// selects the round's randomness (use a fresh seed per round, e.g. drawn
// off a run stream). The Service's scratch is reused, so a Service still
// runs one round at a time.
func (sv *Service) RunRoundSeeded(seed uint64, workers int) (RoundResult, error) {
	return sv.RunRoundSeededFiltered(seed, workers, nil)
}

// RunRoundSeededFiltered is RunRoundSeeded with the liveness predicate of
// RunRoundFiltered. alive is called concurrently from all workers and must
// be safe for concurrent use. Dead nodes neither scatter nor match, and
// requests addressed to them are lost; because every node draws from its
// own derived stream, the surviving nodes' randomness is unaffected by who
// crashed — and still independent of the worker count.
func (sv *Service) RunRoundSeededFiltered(seed uint64, workers int, alive func(i int) bool) (RoundResult, error) {
	if workers < 1 {
		return RoundResult{}, fmt.Errorf("core: seeded round needs workers >= 1, got %d", workers)
	}
	if p, ok := sv.sel.(Preparer); ok {
		if err := p.Prepare(); err != nil {
			return RoundResult{}, fmt.Errorf("core: selector prepare failed: %w", err)
		}
	}

	n := sv.profile.N()
	eng := &sv.eng
	eng.ensure(n, workers)
	eng.ensureSeeded(workers)
	scratch := func(w int) *workerScratch { return &eng.ws[w] }
	cut := eng.senderShards(n, workers, alive)

	// Scatter: worker w draws destinations for its sender shard, reseeding
	// its generator once per live node and recording each pair into the
	// chunk of the destination's owner. The shard cuts only affect which
	// worker does the work, never the draws.
	runPhase(workers, func(w int) {
		eng.ws[w].reset()
		eng.offers.ClearWorker(w)
		eng.reqs.ClearWorker(w)
		eng.scatterSeeded(sv, w, cut, seed, alive, &eng.offers, &eng.reqs)
	})

	// Exchange + sort: identical to the worker-stream path.
	eng.sortRound(n, workers)

	// Match: one derived stream per rendezvous bucket. Buckets with either
	// side empty arrange nothing and consume no randomness, so they are
	// skipped without reseeding — exactly as in Arranger.Arrange.
	eng.rdvCut = exch.BalancedCuts(eng.rdvCut, n, workers, func(v int) int {
		return int(eng.offerOff[v+1]-eng.offerOff[v]) + int(eng.reqOff[v+1]-eng.reqOff[v])
	})
	runPhase(workers, func(w int) {
		eng.ws[w].dates = eng.ws[w].dates[:0]
		eng.matchSeeded(w, seed)
	})

	return mergeRound(n, workers, scratch), nil
}

// scatterSeeded runs worker w's share of a seeded scatter pass over the
// sender shard cut[w]..cut[w+1], recording into the given exchange pair
// (the pipelined path points it at the back buffers). The caller resets the
// counters and clears the exchange rows; this only appends.
func (eng *engineScratch) scatterSeeded(sv *Service, w int, cut []int, seed uint64, alive func(i int) bool, offers, reqs *exchInt32) {
	ws := &eng.ws[w]
	out, in := sv.profile.Out, sv.profile.In
	gen, s := eng.seedGens[w], eng.seedStreams[w]
	for i := cut[w]; i < cut[w+1]; i++ {
		if alive != nil && !alive(i) {
			continue
		}
		gen.Seed(rng.Derive(seed, domainScatter, uint64(i)))
		for k := 0; k < out[i]; k++ {
			dest := sv.sel.Pick(s)
			if alive != nil && !alive(dest) {
				continue // lost: rendezvous is down
			}
			offers.Record(w, int32(dest), int32(i))
			ws.offersSent++
		}
		for k := 0; k < in[i]; k++ {
			dest := sv.sel.Pick(s)
			if alive != nil && !alive(dest) {
				continue
			}
			reqs.Record(w, int32(dest), int32(i))
			ws.requestsSent++
		}
	}
}

// matchSeeded runs worker w's share of a seeded match pass over the sorted
// front buffers, appending to the worker's date buffer.
func (eng *engineScratch) matchSeeded(w int, seed uint64) {
	ws := &eng.ws[w]
	gen, s := eng.seedGens[w], eng.seedStreams[w]
	emit := func(sender, receiver int32) {
		ws.dates = append(ws.dates, Date{Sender: int(sender), Receiver: int(receiver)})
	}
	for v := eng.rdvCut[w]; v < eng.rdvCut[w+1]; v++ {
		offers := eng.offersFlat[eng.offerOff[v]:eng.offerOff[v+1]]
		requests := eng.reqFlat[eng.reqOff[v]:eng.reqOff[v+1]]
		if len(offers) == 0 || len(requests) == 0 {
			continue
		}
		gen.Seed(rng.Derive(seed, domainMatch, uint64(v)))
		MatchRendezvous(offers, requests, s, emit)
	}
}

// senderShards returns the sender cuts of a seeded round. Unfiltered rounds
// use the static profile-weight cuts of ensure. Under churn the static cuts
// skew — when crashes concentrate in one id region its workers idle while
// the rest carry the round — so filtered rounds rebalance by *live* weight:
// a dead node weighs zero. Rebalancing only moves work between workers; the
// seeded randomness scheme makes the result independent of the cuts, so the
// output is unchanged (the churn tests pin this bit-for-bit).
func (eng *engineScratch) senderShards(n, workers int, alive func(i int) bool) []int {
	if alive == nil {
		return eng.senderCut
	}
	eng.liveCut = exch.BalancedCuts(eng.liveCut, n, workers, func(i int) int {
		if !alive(i) {
			return 0
		}
		return eng.weight(i)
	})
	return eng.liveCut
}

// ensureSeeded sizes the reseedable generators of the seeded round path.
func (eng *engineScratch) ensureSeeded(workers int) {
	for len(eng.seedGens) < workers {
		gen := rng.NewXoshiro256(0)
		eng.seedGens = append(eng.seedGens, gen)
		eng.seedStreams = append(eng.seedStreams, rng.NewWithSource(gen))
	}
}
