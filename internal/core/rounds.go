package core

// This file implements pipelined multi-round execution on the seeded path:
// RunRoundsSeeded runs k rounds back to back, double-buffering the request
// exchange so workers record round r+1's requests in the same fanout that
// matches round r's.
//
// A sequential seeded round pays three barriers: scatter, sort, match. The
// scatter of round r+1 is oblivious to round r's dates — request emission
// depends only on (profile, selector, seed) — so it can ride in the match
// fanout: each worker matches its rendezvous shard of round r from the
// *front* exchange pair, then immediately scatters its sender shard of
// round r+1 into the *back* pair; an O(1) Swap makes the back pair the next
// round's front. Steady-state rounds therefore pay two barriers instead of
// three, and the scatter's random-access chunk writes overlap the match's
// shuffle work instead of each sitting on its own barrier.
//
// Bit-identity with the sequential path is structural, not incidental:
// every draw comes from a stream derived per unit of work
// (rng.Derive(seed_r, domainScatter, node) / (seed_r, domainMatch,
// rendezvous)), so fusing match(r) with scatter(r+1) reorders *when* draws
// happen but never *what* is drawn. TestRunRoundsSeededPipelined pins
// RunRoundsSeeded(seeds, w) == [RunRoundSeeded(seed, w) for seed in seeds]
// bit for bit at workers {1, 2, 4, 8}.
//
// The pipelined path has no liveness predicate on purpose: under churn the
// alive set changes between rounds, so round r+1's scatter may not be
// emitted before round r's deaths are known — exactly the round barrier
// the paper's synchronous model imposes. Filtered rounds stay sequential.

import (
	"fmt"

	"repro/internal/exch"
)

// RunRoundsSeeded executes len(seeds) seeded rounds pipelined: round r is
// matched while round r+1's requests are already being recorded into a
// second exchange buffer (see the file comment for the fusion argument).
// Results are bit-for-bit identical to calling RunRoundSeeded(seeds[r],
// workers) in sequence, for every workers >= 1. The Service's scratch is
// reused, so a Service still runs one batch at a time.
func (sv *Service) RunRoundsSeeded(seeds []uint64, workers int) ([]RoundResult, error) {
	if workers < 1 {
		return nil, fmt.Errorf("core: pipelined rounds need workers >= 1, got %d", workers)
	}
	if len(seeds) == 0 {
		return nil, nil
	}
	if p, ok := sv.sel.(Preparer); ok {
		if err := p.Prepare(); err != nil {
			return nil, fmt.Errorf("core: selector prepare failed: %w", err)
		}
	}

	n := sv.profile.N()
	eng := &sv.eng
	eng.ensure(n, workers)
	eng.ensureSeeded(workers)
	eng.offersBack.Reset(workers, eng.offers.Part())
	eng.reqsBack.Reset(workers, eng.reqs.Part())
	scratch := func(w int) *workerScratch { return &eng.ws[w] }

	// Prologue: scatter round 0 into the front pair — the only round whose
	// scatter has no previous match to hide behind.
	runPhase(workers, func(w int) {
		eng.ws[w].reset()
		eng.offers.ClearWorker(w)
		eng.reqs.ClearWorker(w)
		eng.scatterSeeded(sv, w, eng.senderCut, seeds[0], nil, &eng.offers, &eng.reqs)
	})

	results := make([]RoundResult, len(seeds))
	for r := range seeds {
		// Round r's control-message counters must be read before the fused
		// fanout resets them for round r+1's scatter.
		offersSent, requestsSent := 0, 0
		for w := 0; w < workers; w++ {
			offersSent += eng.ws[w].offersSent
			requestsSent += eng.ws[w].requestsSent
		}

		eng.sortRound(n, workers)
		eng.rdvCut = exch.BalancedCuts(eng.rdvCut, n, workers, func(v int) int {
			return int(eng.offerOff[v+1]-eng.offerOff[v]) + int(eng.reqOff[v+1]-eng.reqOff[v])
		})

		last := r+1 == len(seeds)
		runPhase(workers, func(w int) {
			eng.ws[w].dates = eng.ws[w].dates[:0]
			eng.matchSeeded(w, seeds[r])
			if !last {
				// Fused: record round r+1 into the back pair while other
				// workers are still matching round r.
				eng.ws[w].offersSent = 0
				eng.ws[w].requestsSent = 0
				eng.offersBack.ClearWorker(w)
				eng.reqsBack.ClearWorker(w)
				eng.scatterSeeded(sv, w, eng.senderCut, seeds[r+1], nil, &eng.offersBack, &eng.reqsBack)
			}
		})

		res := mergeDates(n, workers, scratch)
		res.OffersSent = offersSent
		res.RequestsSent = requestsSent
		results[r] = res
		if !last {
			eng.offers.Swap(&eng.offersBack)
			eng.reqs.Swap(&eng.reqsBack)
		}
	}
	return results, nil
}
