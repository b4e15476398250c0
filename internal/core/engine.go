package core

// This file implements the flat round engine: the one body of Algorithm 1
// that every entry point of the package — Service and Arranger alike — runs.
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
//	merge     date buffers are concatenated in worker order.
//
// Because chunks are recorded in scan order within a worker, worker sender
// shards are contiguous ascending ranges, and each owner replays chunks in
// worker order, bucket v always holds its requests in global sender order —
// exactly the layout of the pre-radix engine, whatever the worker count.
//
// The body's only mode is where a unit of work's stream comes from. Every
// production path is *seeded*: a worker reseeds its generator with
// rng.Derive(seed, domainScatter, node) before a node's draws and with
// rng.Derive(seed, domainMatch, rendezvous) before a bucket's shuffle, so
// whichever worker processes a node or bucket draws the same values and the
// round is a pure function of (out, in, selector, seed, alive) — workers is
// a pure speed knob, on any GOMAXPROCS, under any goroutine schedule. The
// price is a two-step Derive chain plus a four-step SplitMix64 state
// expansion per participating node and per non-empty bucket, about 25% on a
// unit-bandwidth uniform round at n=100k (BenchmarkSeededRound tracks it).
// The other mode is the paper's serial reference, RunRound: one worker
// drawing everything from the caller's single stream, in node order and
// then rendezvous order. The two differ in those two reseeds and nothing
// else.
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
// snapshot) implement Prepare so the engine can force that work to happen
// once, before workers fan out. Selectors without Prepare must be read-only
// under Pick.
type Preparer interface {
	// Prepare brings the selector to a state where concurrent Pick calls
	// with distinct streams are safe.
	Prepare() error
}

// Derivation domains keep the scatter and match randomness of one seeded
// round disjoint even when a node id equals a rendezvous id.
const (
	domainScatter uint64 = 1
	domainMatch   uint64 = 2
)

// engineWorker is one worker's private state: the date buffer of the match
// pass and the generator (with the stream reading it) that a seeded round
// reseeds for every node (scatter) or bucket (match) the worker processes —
// four SplitMix64 steps, far cheaper than allocating a stream per unit of
// work.
type engineWorker struct {
	dates  []Date
	gen    *rng.Xoshiro256
	stream *rng.Stream
}

// engine is the round scratch a Service or an Arranger reuses across
// rounds. It grows to the largest (n, workers) seen, is never shared, and
// runs one round at a time.
type engine struct {
	ws []engineWorker

	// offers/reqs are the owner-range exchanges of the round's two request
	// kinds: keys are rendezvous ids, values sender ids.
	offers exch.Exchange[int32]
	reqs   exch.Exchange[int32]

	offerOff   []int32 // len n+1: offers bucket v is offersFlat[offerOff[v]:offerOff[v+1]]
	reqOff     []int32
	offersFlat []int32
	reqFlat    []int32
	senderCut  []int // len workers+1: the scatter shards of a round given no cuts
	rdvCut     []int // len workers+1: worker w matches rendezvous [cut[w], cut[w+1])
}

// prepare is the entry check of a seeded round: a valid worker count, and
// lazily-built selector state (e.g. a churned ring snapshot) forced into
// place before any fanout, so Pick is a pure read on every worker.
func prepare(sel Selector, workers int) error {
	if workers < 1 {
		return fmt.Errorf("core: round needs workers >= 1, got %d", workers)
	}
	if p, ok := sel.(Preparer); ok {
		if err := p.Prepare(); err != nil {
			return fmt.Errorf("core: selector prepare failed: %w", err)
		}
	}
	return nil
}

// round runs Algorithm 1 once and returns the dates in rendezvous order:
// node i sends out[i] offers and in[i] requests to rendezvous drawn from
// sel. A node that alive (nil: everyone) reports dead neither emits nor
// matches, and a request addressed to it is drawn and lost — a dead
// rendezvous simply never answers. alive is called concurrently from all
// workers.
//
// cut, when non-nil, is the workers+1 sender shard boundaries to scatter by;
// nil balances the shards by this round's request weight. The cuts only
// decide which worker does the work, never the draws.
//
// serial selects the stream mode (see the file comment): nil reseeds per
// node and per rendezvous from seed, so the result is the same for every
// workers >= 1; non-nil draws everything from that one stream, ignores
// seed, and needs workers == 1.
func (e *engine) round(sel Selector, out, in []int, alive func(i int) bool, cut []int, seed uint64, serial *rng.Stream, workers int) []Date {
	n := sel.N()
	e.ensure(n, workers)

	// Scatter: worker w draws destinations for its sender shard, recording
	// each pair into the chunk of the destination's owner. A node that is
	// dead or has nothing to send draws nothing, is skipped before the
	// reseed, and weighs nothing in the cuts (under churn concentrated in
	// one id region cuts by profile weight would idle its workers).
	if cut == nil {
		e.senderCut = exch.BalancedCuts(e.senderCut, n, workers, func(i int) int {
			if alive != nil && !alive(i) {
				return 0
			}
			return out[i] + in[i]
		})
		cut = e.senderCut
	}
	par.Do(workers, func(w int) {
		ws := &e.ws[w]
		e.offers.ClearWorker(w)
		e.reqs.ClearWorker(w)
		s := serial
		if s == nil {
			s = ws.stream
		}
		for i := cut[w]; i < cut[w+1]; i++ {
			if out[i]+in[i] == 0 || (alive != nil && !alive(i)) {
				continue
			}
			if serial == nil {
				ws.gen.Seed(rng.Derive(seed, domainScatter, uint64(i)))
			}
			for k := 0; k < out[i]; k++ {
				dest := sel.Pick(s)
				if alive != nil && !alive(dest) {
					continue // lost: rendezvous is down
				}
				e.offers.Record(w, int32(dest), int32(i))
			}
			for k := 0; k < in[i]; k++ {
				dest := sel.Pick(s)
				if alive != nil && !alive(dest) {
					continue
				}
				e.reqs.Record(w, int32(dest), int32(i))
			}
		}
	})

	// Exchange + sort: Prefix both exchanges serially, then each owner
	// counting-sorts its destination range, leaving one contiguous buffer
	// per kind with every bucket in global sender order. offerOff[n] and
	// reqOff[n] are the numbers of requests that reached a rendezvous.
	e.offerOff[n] = e.offers.Prefix()
	e.reqOff[n] = e.reqs.Prefix()
	e.offersFlat = grow(e.offersFlat, int(e.offerOff[n]))
	e.reqFlat = grow(e.reqFlat, int(e.reqOff[n]))
	par.Do(workers, func(o int) {
		e.offers.Fill(o, e.offerOff, e.offersFlat)
		e.reqs.Fill(o, e.reqOff, e.reqFlat)
	})

	// Match: shard rendezvous nodes across workers, balanced by bucket
	// size (the shuffle cost of MatchRendezvous is linear in it). A bucket
	// with either side empty arranges nothing and draws nothing, so it is
	// skipped before the reseed.
	e.rdvCut = exch.BalancedCuts(e.rdvCut, n, workers, func(v int) int {
		return int(e.offerOff[v+1]-e.offerOff[v]) + int(e.reqOff[v+1]-e.reqOff[v])
	})
	par.Do(workers, func(w int) {
		ws := &e.ws[w]
		ws.dates = ws.dates[:0]
		s := serial
		if s == nil {
			s = ws.stream
		}
		emit := func(sender, receiver int32) {
			ws.dates = append(ws.dates, Date{Sender: int(sender), Receiver: int(receiver)})
		}
		for v := e.rdvCut[w]; v < e.rdvCut[w+1]; v++ {
			offers := e.offersFlat[e.offerOff[v]:e.offerOff[v+1]]
			requests := e.reqFlat[e.reqOff[v]:e.reqOff[v+1]]
			if len(offers) == 0 || len(requests) == 0 {
				continue
			}
			if serial == nil {
				ws.gen.Seed(rng.Derive(seed, domainMatch, uint64(v)))
			}
			MatchRendezvous(offers, requests, s, emit)
		}
	})

	// Merge: per-worker buffers hold contiguous ascending rendezvous ranges,
	// so concatenating in worker order yields rendezvous order — the same
	// sequence for every worker count.
	total := 0
	for w := 0; w < workers; w++ {
		total += len(e.ws[w].dates)
	}
	dates := make([]Date, 0, total)
	for w := 0; w < workers; w++ {
		dates = append(dates, e.ws[w].dates...)
	}
	return dates
}

// ensure sizes the scratch for an (n, workers) round. The request
// exchanges are re-partitioned every round (a no-op while (n, workers) is
// stable).
func (e *engine) ensure(n, workers int) {
	for len(e.ws) < workers {
		gen := rng.NewXoshiro256(0)
		e.ws = append(e.ws, engineWorker{gen: gen, stream: rng.NewWithSource(gen)})
	}
	if len(e.offerOff) != n+1 {
		e.offerOff = make([]int32, n+1)
		e.reqOff = make([]int32, n+1)
	}
	part := exch.Partition{N: n, Parts: workers}
	e.offers.Reset(workers, part)
	e.reqs.Reset(workers, part)
}

// grow returns s resliced to length size, reallocating only when needed.
func grow(s []int32, size int) []int32 {
	if cap(s) >= size {
		return s[:size]
	}
	return make([]int32, size)
}
