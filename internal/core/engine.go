package core

// This file implements the flat round engine shared by the serial and
// parallel execution paths of Algorithm 1.
//
// Instead of appending each request to a per-rendezvous slice (one heap
// object per node, pointer-chasing in the match pass), the engine lays the
// round out on the owner-range exchange kernel of internal/exch: a
// radix-partitioned counting sort keyed by rendezvous. Workers own two
// kinds of contiguous ranges: a *sender* shard (which nodes they scatter
// for) and a *destination* range (which rendezvous buckets they build,
// exch.Partition's uniform id cuts). A round runs as:
//
//	scatter   each worker draws destinations for a contiguous shard of
//	          senders and records every emitted (dest, sender) pair into the
//	          exchange chunk of the destination's owner — one small buffer
//	          per (worker, owner) pair, filled in scan order;
//	exchange  exch.Prefix — a tiny serial pass over each owner's incoming
//	          chunk lengths (O(workers²), no length-n scan) prefixed into
//	          per-owner base offsets in the flat output arrays;
//	sort      exch.Fill per owner — each owner counting-sorts its own
//	          destination range (count array covering only that range,
//	          bucket v of each kind ends up as flat[off[v]:off[v+1]]),
//	          replaying the chunks in worker order;
//	match     each worker runs MatchRendezvous over a contiguous shard of
//	          rendezvous buckets, appending to a private date buffer;
//	merge     date buffers are concatenated in worker order and the
//	          per-node counters are rebuilt from the merged dates.
//
// Because chunks are recorded in scan order within a worker, worker sender
// shards are contiguous ascending ranges, and each owner replays chunks in
// worker order, bucket v always holds its requests in global sender order —
// exactly the layout of the pre-radix engine. The layout — and therefore
// the whole round — is a pure function of (profile, selector, worker
// streams, workers, alive): results are exactly reproducible for a fixed
// (seed, workers) pair, on any GOMAXPROCS, under any goroutine schedule.
//
// Memory is O(n + requests) regardless of the worker count: the owners'
// count arrays partition [0, n) (one length-(n/workers) array each, not one
// length-n array per worker), and the chunk buffers together hold exactly
// the round's recorded requests.
//
// The engine assumes fewer than 2^31 requests of each kind per round
// (offsets are int32); each recorded request already costs 8 bytes of
// scratch, so this bound is far beyond any round that fits in memory.

import (
	"fmt"

	"repro/internal/exch"
	"repro/internal/par"
	"repro/internal/rng"
)

// Preparer is an optional Selector extension: selectors whose Pick would
// lazily mutate shared state (e.g. DynamicRingSelector rebuilding its ring
// snapshot) implement Prepare so the parallel engine can force that work to
// happen once, before workers fan out. Selectors without Prepare must be
// read-only under Pick.
type Preparer interface {
	// Prepare brings the selector to a state where concurrent Pick calls
	// with distinct streams are safe.
	Prepare() error
}

// exchInt32 shortens the request-exchange type: keys are rendezvous ids,
// values sender ids.
type exchInt32 = exch.Exchange[int32]

// workerScratch is the per-worker slice of the engine state that is not
// part of the request exchange: the private date buffer of the match pass
// and the control-message counters of the scatter pass.
type workerScratch struct {
	dates        []Date
	offersSent   int
	requestsSent int
}

// reset readies the scratch for a round.
func (ws *workerScratch) reset() {
	ws.dates = ws.dates[:0]
	ws.offersSent = 0
	ws.requestsSent = 0
}

// engineScratch is the round state a Service reuses across rounds. It grows
// to the largest (n, workers) seen and is never shared between Services.
type engineScratch struct {
	ws []workerScratch

	// offers/reqs are the owner-range exchanges of the round's two request
	// kinds: keys are rendezvous ids, values sender ids.
	offers exch.Exchange[int32]
	reqs   exch.Exchange[int32]
	// offersBack/reqsBack are the ping-pong twins used by the pipelined
	// multi-round path (rounds.go): while offers/reqs hold round r being
	// matched, workers record round r+1 into the back pair, then Swap.
	offersBack exch.Exchange[int32]
	reqsBack   exch.Exchange[int32]

	offerOff   []int32 // len n+1: offers bucket v is offersFlat[offerOff[v]:offerOff[v+1]]
	reqOff     []int32
	offersFlat []int32
	reqFlat    []int32
	senderCut  []int // len workers+1: worker w scatters senders [cut[w], cut[w+1])
	liveCut    []int // churn-rebalanced sender cuts of the filtered seeded path
	rdvCut     []int // len workers+1: worker w matches rendezvous [cut[w], cut[w+1])
	one        [1]*rng.Stream

	// Reseedable per-worker generators for the per-node/per-bucket derived
	// streams of the seeded round path (see seeded.go); sized lazily.
	seedGens    []*rng.Xoshiro256
	seedStreams []*rng.Stream

	// weight is the sender-shard balance weight bout(i)+bin(i); set by
	// NewService (engineScratch does not hold the profile).
	weight     func(i int) int
	cutWorkers int // workers count senderCut was computed for, 0 if stale
}

// RunRoundParallel executes Algorithm 1 once across workers goroutines,
// using streams[w] as worker w's private randomness for both the scatter
// and the match pass. len(streams) must be at least workers; derive the
// streams once with rng.NewStreams(seed, workers) and reuse them across
// rounds — their evolution stays deterministic.
//
// The result is exactly reproducible for a fixed (stream seeds, workers)
// pair and satisfies the same capacity invariants as RunRound; different
// worker counts give different (equally distributed) rounds. The Service's
// scratch is reused, so a Service still runs one round at a time.
func (sv *Service) RunRoundParallel(streams []*rng.Stream, workers int) (RoundResult, error) {
	return sv.RunRoundParallelFiltered(streams, workers, nil)
}

// RunRoundParallelFiltered is RunRoundParallel with the liveness predicate
// of RunRoundFiltered. alive is called concurrently from all workers and
// must be safe for concurrent use (in practice: a pure read of state that
// does not change during the round).
func (sv *Service) RunRoundParallelFiltered(streams []*rng.Stream, workers int, alive func(i int) bool) (RoundResult, error) {
	if workers < 1 {
		return RoundResult{}, fmt.Errorf("core: parallel round needs workers >= 1, got %d", workers)
	}
	if len(streams) < workers {
		return RoundResult{}, fmt.Errorf("core: parallel round needs one stream per worker: %d streams < %d workers", len(streams), workers)
	}
	for w, s := range streams[:workers] {
		if s == nil {
			return RoundResult{}, fmt.Errorf("core: worker %d has a nil stream", w)
		}
	}
	if p, ok := sv.sel.(Preparer); ok {
		if err := p.Prepare(); err != nil {
			return RoundResult{}, fmt.Errorf("core: selector prepare failed: %w", err)
		}
	}
	return sv.runEngine(streams[:workers], workers, alive), nil
}

// runPhase fans one phase of a round out across workers goroutines;
// phases are separated by barriers. Shared by the Service round engine and
// the Arranger (and, via par.Do, the live message runtime).
func runPhase(workers int, f func(w int)) {
	par.Do(workers, f)
}

// sortPairs is the exchange + sort pass shared by the Service round paths
// and the Arranger: Prefix both exchanges serially, grow the flat arrays,
// then fan the owners out to Fill their destination ranges (see
// internal/exch for the kernel's layout guarantees). The flat arrays are
// grown as needed and returned; offerOff and reqOff must have length n+1.
func sortPairs(n, workers int, offers, reqs *exch.Exchange[int32], offerOff, reqOff []int32, offersFlat, reqFlat []int32) ([]int32, []int32) {
	offTotal := offers.Prefix()
	reqTotal := reqs.Prefix()
	offersFlat = grow(offersFlat, int(offTotal))
	reqFlat = grow(reqFlat, int(reqTotal))
	runPhase(workers, func(o int) {
		offers.Fill(o, offerOff, offersFlat)
		reqs.Fill(o, reqOff, reqFlat)
	})
	offerOff[n] = offTotal
	reqOff[n] = reqTotal
	return offersFlat, reqFlat
}

// sortRound runs sortPairs on the engine's front exchanges.
func (eng *engineScratch) sortRound(n, workers int) {
	eng.offersFlat, eng.reqFlat = sortPairs(n, workers, &eng.offers, &eng.reqs,
		eng.offerOff, eng.reqOff, eng.offersFlat, eng.reqFlat)
}

// runEngine is the shared round body.
func (sv *Service) runEngine(streams []*rng.Stream, workers int, alive func(i int) bool) RoundResult {
	n := sv.profile.N()
	eng := &sv.eng
	eng.ensure(n, workers)
	scratch := func(w int) *workerScratch { return &eng.ws[w] }

	// Scatter: worker w draws destinations for its sender shard, recording
	// each pair into the chunk of the destination's owner.
	out, in := sv.profile.Out, sv.profile.In
	runPhase(workers, func(w int) {
		ws := &eng.ws[w]
		ws.reset()
		eng.offers.ClearWorker(w)
		eng.reqs.ClearWorker(w)
		s := streams[w]
		for i := eng.senderCut[w]; i < eng.senderCut[w+1]; i++ {
			if alive != nil && !alive(i) {
				continue
			}
			for k := 0; k < out[i]; k++ {
				dest := sv.sel.Pick(s)
				if alive != nil && !alive(dest) {
					continue // lost: rendezvous is down
				}
				eng.offers.Record(w, int32(dest), int32(i))
				ws.offersSent++
			}
			for k := 0; k < in[i]; k++ {
				dest := sv.sel.Pick(s)
				if alive != nil && !alive(dest) {
					continue
				}
				eng.reqs.Record(w, int32(dest), int32(i))
				ws.requestsSent++
			}
		}
	})

	// Exchange + sort: counting-sort the recorded requests into one
	// contiguous buffer per kind (see sortPairs for the layout).
	eng.sortRound(n, workers)

	// Match: shard rendezvous nodes across workers, balanced by bucket
	// size (the shuffle cost of MatchRendezvous is linear in it).
	eng.rdvCut = exch.BalancedCuts(eng.rdvCut, n, workers, func(v int) int {
		return int(eng.offerOff[v+1]-eng.offerOff[v]) + int(eng.reqOff[v+1]-eng.reqOff[v])
	})
	runPhase(workers, func(w int) {
		ws := &eng.ws[w]
		s := streams[w]
		emit := func(sender, receiver int32) {
			ws.dates = append(ws.dates, Date{Sender: int(sender), Receiver: int(receiver)})
		}
		for v := eng.rdvCut[w]; v < eng.rdvCut[w+1]; v++ {
			offers := eng.offersFlat[eng.offerOff[v]:eng.offerOff[v+1]]
			requests := eng.reqFlat[eng.reqOff[v]:eng.reqOff[v+1]]
			MatchRendezvous(offers, requests, s, emit)
		}
	})

	return mergeRound(n, workers, scratch)
}

// mergeDates concatenates per-worker dates in worker order and rebuilds the
// per-node counters from the merged list, leaving the control-message
// counters to the caller (the pipelined path captures them a fanout
// earlier, before the fused scatter of the next round overwrites them).
func mergeDates(n, workers int, scratch func(w int) *workerScratch) RoundResult {
	res := RoundResult{
		PerNodeOut: make([]int, n),
		PerNodeIn:  make([]int, n),
	}
	total := 0
	for w := 0; w < workers; w++ {
		total += len(scratch(w).dates)
	}
	res.Dates = make([]Date, 0, total)
	for w := 0; w < workers; w++ {
		res.Dates = append(res.Dates, scratch(w).dates...)
	}
	for _, d := range res.Dates {
		res.PerNodeOut[d.Sender]++
		res.PerNodeIn[d.Receiver]++
	}
	return res
}

// mergeRound is mergeDates plus the control-message counters, for the
// single-round paths where the scratch still holds this round's counts.
func mergeRound(n, workers int, scratch func(w int) *workerScratch) RoundResult {
	res := mergeDates(n, workers, scratch)
	for w := 0; w < workers; w++ {
		ws := scratch(w)
		res.OffersSent += ws.offersSent
		res.RequestsSent += ws.requestsSent
	}
	return res
}

// ensure sizes the scratch for an (n, workers) round and recomputes the
// sender shard boundaries when the worker count changes. Sender shards are
// balanced by per-node request weight bout(i)+bin(i), so skewed profiles
// still split evenly. The request exchanges are re-partitioned every round
// (a no-op while (n, workers) is stable).
func (eng *engineScratch) ensure(n, workers int) {
	if len(eng.ws) < workers {
		eng.ws = append(eng.ws, make([]workerScratch, workers-len(eng.ws))...)
	}
	if len(eng.offerOff) != n+1 {
		eng.offerOff = make([]int32, n+1)
		eng.reqOff = make([]int32, n+1)
		eng.cutWorkers = 0
	}
	part := exch.Partition{N: n, Parts: workers}
	eng.offers.Reset(workers, part)
	eng.reqs.Reset(workers, part)
	if eng.cutWorkers != workers {
		// The profile is fixed for the Service's lifetime, so the cuts only
		// depend on the worker count; eng.weight is set by NewService.
		eng.senderCut = exch.BalancedCuts(eng.senderCut, n, workers, eng.weight)
		eng.cutWorkers = workers
	}
}

// grow returns s resliced to length size, reallocating only when needed.
func grow(s []int32, size int) []int32 {
	if cap(s) >= size {
		return s[:size]
	}
	return make([]int32, size)
}
